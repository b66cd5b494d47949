#include "hamlet/synth/onexr.h"

#include <cassert>
#include <string>

#include "hamlet/common/rng.h"
#include "hamlet/synth/distributions.h"

namespace hamlet {
namespace synth {

namespace {

/// Builds the dimension table: Xr first, then dr-1 noise features.
Table MakeDimension(const OneXrConfig& cfg, Rng& rng) {
  TableSchema schema;
  assert(cfg.dr >= 1);
  (void)schema.AddColumn(ColumnSpec{"xr", cfg.xr_domain});
  for (size_t j = 1; j < cfg.dr; ++j) {
    (void)schema.AddColumn(
        ColumnSpec{"noise" + std::to_string(j), cfg.noise_domain});
  }
  Table dim(schema);
  dim.Reserve(cfg.nr);
  std::vector<uint32_t> row(cfg.dr);
  for (size_t r = 0; r < cfg.nr; ++r) {
    row[0] = static_cast<uint32_t>(rng.UniformInt(cfg.xr_domain));
    for (size_t j = 1; j < cfg.dr; ++j) {
      row[j] = static_cast<uint32_t>(rng.UniformInt(cfg.noise_domain));
    }
    dim.AppendRowUnchecked(row);
  }
  return dim;
}

Discrete MakeFkDistribution(const OneXrConfig& cfg) {
  switch (cfg.skew) {
    case FkSkew::kUniform:
      return MakeUniform(cfg.nr);
    case FkSkew::kZipf:
      return MakeZipf(cfg.nr, cfg.skew_param);
    case FkSkew::kNeedleThread:
      return MakeNeedleAndThread(cfg.nr, cfg.skew_param);
  }
  return MakeUniform(cfg.nr);
}

}  // namespace

StarSchema GenerateOneXr(const OneXrConfig& cfg) {
  Rng rng(cfg.seed);

  // Step 1: dimension table with random X_R (Xr = column 0). Seeded
  // independently of the fact rows so Monte-Carlo runs share one
  // distribution (see OneXrConfig::dim_seed).
  Rng dim_rng(cfg.dim_seed);
  Table dim = MakeDimension(cfg, dim_rng);

  // Fact-table schema: ds noise home features.
  TableSchema fact_schema;
  for (size_t j = 0; j < cfg.ds; ++j) {
    (void)fact_schema.AddColumn(
        ColumnSpec{"xs" + std::to_string(j), cfg.noise_domain});
  }
  StarSchema star{Table(fact_schema)};
  const Table& dim_ref = dim;
  star.AddDimension("r", std::move(dim));
  star.ReserveFacts(cfg.ns);

  // Steps 2-4: sample facts; Y depends on Xr via the implicit join.
  const Discrete fk_dist = MakeFkDistribution(cfg);
  std::vector<uint32_t> home(cfg.ds);
  std::vector<uint32_t> fks(1);
  for (size_t r = 0; r < cfg.ns; ++r) {
    for (size_t j = 0; j < cfg.ds; ++j) {
      home[j] = static_cast<uint32_t>(rng.UniformInt(cfg.noise_domain));
    }
    const uint32_t fk = fk_dist.Sample(rng);
    fks[0] = fk;
    const uint32_t xr = star.dimension(0).table.at(fk, 0);
    // P(Y=1|Xr=1)=p and P(Y=0|Xr=0)=p generalised to |D_Xr|>2: Y agrees
    // with (xr mod 2) with probability 1-p.
    const uint8_t agree = static_cast<uint8_t>(xr % 2);
    const uint8_t label =
        rng.Bernoulli(cfg.p) ? agree : static_cast<uint8_t>(1 - agree);
    Status st = star.AppendFact(home, fks, label);
    assert(st.ok());
    (void)st;
  }
  (void)dim_ref;
  return star;
}

}  // namespace synth
}  // namespace hamlet
