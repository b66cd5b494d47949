#include "hamlet/ml/linear/logistic_regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

#include "hamlet/io/model_io.h"
#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double SoftThreshold(double x, double t) {
  if (x > t) return x - t;
  if (x < -t) return x + t;
  return 0.0;
}

}  // namespace

LogisticRegressionL1::LogisticRegressionL1(LogisticRegressionConfig config)
    : config_(std::move(config)) {}

double LogisticRegressionL1::MarginOfCodes(const uint32_t* codes) const {
  double z = intercept_;
  for (size_t j = 0; j < one_hot_.num_features(); ++j) {
    // A code past feature j's training domain scores as that feature's
    // last code, never as a unit of the next feature.
    const uint32_t u = one_hot_.ClampedUnitIndex(j, codes[j]);
    if (u < weights_.size()) z += weights_[u];
  }
  return z;
}

Status LogisticRegressionL1::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  // Materialise the training view once; the per-row one-hot unit lists
  // below then come from contiguous code rows instead of double-indirect
  // view accesses.
  const CodeMatrix m(train);
  const size_t n = m.num_rows();
  one_hot_ = OneHotMap(train);
  const size_t dim = one_hot_.dimension();
  const size_t d_active = m.num_features();

  // Precompute active unit lists (n rows x d_active units).
  std::vector<uint32_t> units(n * d_active);
  std::vector<uint32_t> row_units;
  for (size_t i = 0; i < n; ++i) {
    one_hot_.ActiveUnitsFromCodes(m.row(i), row_units);
    std::copy(row_units.begin(), row_units.end(),
              units.begin() + static_cast<long>(i * d_active));
  }
  std::vector<double> y(n);
  double ybar = 0.0;
  for (size_t i = 0; i < n; ++i) {
    y[i] = static_cast<double>(m.label(i));
    ybar += y[i];
  }
  ybar /= static_cast<double>(n);

  // lambda_max: smallest lambda with an all-zero penalised solution,
  // max_u |grad_u| at w=0 (with the intercept at the base rate).
  std::vector<double> grad0(dim, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double r = ybar - y[i];
    // data() arithmetic, not &units[...]: with zero features the vector
    // is empty and forming a reference to units[0] is UB.
    const uint32_t* ru = units.data() + i * d_active;
    for (size_t j = 0; j < d_active; ++j) grad0[ru[j]] += r;
  }
  double lambda_max = 0.0;
  for (double g : grad0) {
    lambda_max = std::max(lambda_max, std::abs(g) / static_cast<double>(n));
  }
  if (lambda_max <= 0.0) lambda_max = 1e-3;
  // The argmax unit sits exactly on the soft-threshold boundary at
  // lambda_max; nudge upward so the path start is genuinely all-zero.
  lambda_max *= 1.001;

  // Lipschitz bound for the logistic loss over one-hot rows: each unit
  // appears in at most n rows with value 1, curvature <= 1/4.
  const double step = 4.0 / (static_cast<double>(d_active) + 1.0);

  // Geometric path, warm-started.
  const size_t nlambda = std::max<size_t>(1, config_.nlambda);
  std::vector<double> lambdas(nlambda);
  const double lmin = lambda_max * config_.lambda_min_ratio;
  for (size_t k = 0; k < nlambda; ++k) {
    // Path starts at lambda_max (all-zero penalised solution) and decays
    // geometrically to lambda_min; a single-point path stays at lambda_max.
    const double t = nlambda == 1
                         ? 0.0
                         : static_cast<double>(k) /
                               static_cast<double>(nlambda - 1);
    lambdas[k] = lambda_max * std::pow(lmin / lambda_max, t);
  }

  std::vector<double> w(dim, 0.0);
  double b = std::log((ybar + 1e-9) / (1.0 - ybar + 1e-9));
  std::vector<double> grad(dim, 0.0);

  double best_acc = -1.0;
  std::vector<double> best_w = w;
  double best_b = b;
  double best_lambda = lambdas.front();

  // FISTA extrapolation state (plain ISTA crawls on the correlated
  // one-hot columns a KFK join produces; Nesterov momentum restores
  // glmnet-comparable convergence).
  std::vector<double> w_prev = w;
  double b_prev = b;

  // Materialise the validation view once; every path point scores on it.
  // The validation view must select the training feature subset, or the
  // dense margin below would read misaligned codes.
  const bool use_validation =
      config_.has_validation && config_.validation.num_rows() > 0;
  assert(!use_validation ||
         config_.validation.num_features() == d_active);
  const CodeMatrix val_m =
      use_validation ? CodeMatrix(config_.validation) : CodeMatrix();

  for (size_t k = 0; k < nlambda; ++k) {
    const double lambda = lambdas[k];
    double prev_obj = std::numeric_limits<double>::infinity();
    double t_momentum = 1.0;
    w_prev = w;
    b_prev = b;
    for (size_t it = 0; it < config_.maxit; ++it) {
      // Extrapolated point y = w + beta (w - w_prev).
      const double t_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
      const double beta = (t_momentum - 1.0) / t_next;

      // Forward at the extrapolated point: margins and loss gradient.
      std::fill(grad.begin(), grad.end(), 0.0);
      double grad_b = 0.0;
      double loss = 0.0;
      const double b_y = b + beta * (b - b_prev);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t* ru = units.data() + i * d_active;
        double z = b_y;
        for (size_t j = 0; j < d_active; ++j) {
          const uint32_t u = ru[j];
          z += w[u] + beta * (w[u] - w_prev[u]);
        }
        const double p = Sigmoid(z);
        const double r = p - y[i];
        grad_b += r;
        for (size_t j = 0; j < d_active; ++j) grad[ru[j]] += r;
        // Numerically-stable log loss.
        loss += z >= 0 ? std::log1p(std::exp(-z)) + (1.0 - y[i]) * z
                       : std::log1p(std::exp(z)) - y[i] * z;
      }
      const double inv_n = 1.0 / static_cast<double>(n);
      double l1 = 0.0;
      // Proximal step from the extrapolated point.
      const double new_b = b_y - step * grad_b * inv_n;
      b_prev = b;
      b = new_b;
      for (size_t u = 0; u < dim; ++u) {
        const double y_u = w[u] + beta * (w[u] - w_prev[u]);
        const double cand = y_u - step * grad[u] * inv_n;
        w_prev[u] = w[u];
        w[u] = SoftThreshold(cand, step * lambda);
        l1 += std::abs(w[u]);
      }
      t_momentum = t_next;
      const double obj = loss * inv_n + lambda * l1;
      if (std::abs(prev_obj - obj) <=
          config_.thresh * std::max(1.0, std::abs(prev_obj))) {
        break;
      }
      prev_obj = obj;
    }

    // Score this path point.
    double acc;
    if (use_validation) {
      weights_ = w;
      intercept_ = b;
      size_t hits = 0;
      for (size_t i = 0; i < val_m.num_rows(); ++i) {
        const uint8_t pred = MarginOfCodes(val_m.row(i)) >= 0.0 ? 1 : 0;
        hits += pred == val_m.label(i);
      }
      acc = static_cast<double>(hits) /
            static_cast<double>(val_m.num_rows());
    } else {
      // No validation: prefer the densest (smallest-lambda) fit.
      acc = static_cast<double>(k);
    }
    if (acc > best_acc) {
      best_acc = acc;
      best_w = w;
      best_b = b;
      best_lambda = lambda;
    }
  }

  weights_ = std::move(best_w);
  intercept_ = best_b;
  selected_lambda_ = best_lambda;
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

Status LogisticRegressionL1::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) {
    return Status::FailedPrecondition("logreg-l1: Save before Fit");
  }
  writer.WriteF64Vec(weights_);
  writer.WriteF64(intercept_);
  writer.WriteF64(selected_lambda_);
  return writer.status();
}

Result<std::unique_ptr<LogisticRegressionL1>> LogisticRegressionL1::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  auto model = std::make_unique<LogisticRegressionL1>();
  HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&model->weights_));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->intercept_));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->selected_lambda_));
  model->one_hot_ = OneHotMap(domains);
  // MarginOfCodes guards each unit index, but a mismatched weight vector
  // would silently drop units rather than score them — reject outright.
  if (model->weights_.size() != model->one_hot_.dimension()) {
    return Status::InvalidArgument(
        "corrupt model: logreg weight vector does not match the one-hot "
        "dimension of the header domains");
  }
  model->fitted_ = true;
  return Result<std::unique_ptr<LogisticRegressionL1>>(std::move(model));
}

double LogisticRegressionL1::ProbabilityOfCodes(const uint32_t* codes) const {
  return Sigmoid(MarginOfCodes(codes));
}

void LogisticRegressionL1::PredictCodes(const uint32_t* codes, size_t rows,
                                        uint8_t* out) const {
  const size_t d = one_hot_.num_features();
  for (size_t r = 0; r < rows; ++r) {
    out[r] = ProbabilityOfCodes(codes + r * d) >= 0.5 ? 1 : 0;
  }
}

size_t LogisticRegressionL1::NumNonzeroWeights() const {
  size_t nz = 0;
  for (double w : weights_) nz += w != 0.0;
  return nz;
}

}  // namespace ml
}  // namespace hamlet
