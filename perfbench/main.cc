// hamlet_perf: runs one benchmark workload and prints its result.
//
//   hamlet_perf --workload grid-highcap|mc-reponexr|serve-socket
//               --seed N --seconds S --trace 0|1 --reference-dir DIR
//               [--write-reference] [--trace-out FILE]
//               [--commit SHA] [--source-digest HEX]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; metrics are the end-to-end set with --trace 0
// and the per-layer set with --trace 1 (perfbench/README.md lists
// both). The line before it carries the full detail: host and config
// fingerprint, every figure with its sample count, oracle notes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/ml/svm/kernel_cache.h"
#include "hamlet/serve/server.h"
#include "hamlet/simd/simd.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exercised = true;
};

/// The serving workload's figures (WorkloadResult::figures), in per-layer
/// order, with their units.
const std::pair<const char*, const char*> kFigureUnits[] = {
    {"serve.batch_p99_us", "us"}, {"net.gen_lag_p99_us", "us"},
    {"net.backlog_max", "count"}, {"serve_rows_per_s", "rows/s"},
    {"req_p50_us.lo", "us"},      {"req_p99_us.lo", "us"},
    {"req_p50_us.hi", "us"},      {"req_p99_us.hi", "us"},
    {"max_rate_at_slo", "req/s"},
};

const char* FigureUnit(const std::string& name) {
  for (const auto& [figure, unit] : kFigureUnits) {
    if (name == figure) return unit;
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Sums traced spans into the per-layer metrics. Work done during set-up
/// is divided by the number of traced set-ups and work done in the timed
/// repetitions by the number of traced repetitions, so every metric reads
/// "per set-up plus per result set" whatever the run length.
class LayerAggregator {
 public:
  LayerAggregator(const WorkloadResult& result, std::vector<Span> spans,
                  std::vector<StageRecord> stages)
      : result_(result), spans_(std::move(spans)), stages_(std::move(stages)) {
    for (size_t i = 0; i < spans_.size(); ++i) index_[spans_[i].id] = i;
  }

  std::vector<Metric> Compute() {
    std::vector<Metric> m;
    const size_t threads = hamlet::parallel::ConfiguredThreads();

    auto sum = [&](auto pred, auto field) {
      double total = 0.0;
      bool seen = false;
      for (const Span& s : spans_) {
        const double w = Weight(s);
        if (w == 0.0 || !pred(s)) continue;
        seen = true;
        total += w * field(s);
      }
      return std::make_pair(total, seen);
    };
    auto named = [](const char* name) {
      return [name](const Span& s) { return std::strcmp(s.name, name) == 0; };
    };
    auto wall = [](const Span& s) { return 1e-9 * static_cast<double>(s.wall_ns()); };
    auto cpu = [](const Span& s) { return 1e-9 * static_cast<double>(s.cpu_ns); };
    auto one = [](const Span&) { return 1.0; };
    auto rows = [](const Span& s) { return static_cast<double>(s.rows); };
    auto allocs = [](const Span& s) { return static_cast<double>(s.allocs); };
    auto add = [&](const char* name, std::pair<double, bool> v,
                   const char* unit) { m.push_back({name, v.first, unit, v.second}); };

    // ml.ann
    const auto ann_fits = sum(named("ml.ann.fit"), one);
    add("ml.ann.fit_s", sum(named("ml.ann.fit"), wall), "s");
    add("ml.ann.fit_cpu_s", sum(named("ml.ann.fit"), cpu), "s");
    add("ml.ann.fits", ann_fits, "count");
    const auto ann_allocs = sum(named("ml.ann.fit"), allocs);
    add("ml.ann.allocs_per_fit",
        {ann_fits.first > 0 ? ann_allocs.first / ann_fits.first : 0.0,
         ann_fits.second},
        "count");

    // ml.grid: each search with the fit / score spans directly under it.
    double search_s = 0, grid_cpu = 0, points = 0, refits = 0, refit_s = 0,
           capacity = 0;
    bool searched = false;
    for (const Span& s : spans_) {
      const double w = Weight(s);
      if (w == 0.0 || std::strcmp(s.name, "ml.grid.search") != 0) continue;
      searched = true;
      search_s += w * wall(s);
      points += w * static_cast<double>(s.rows);
      capacity += w * wall(s) * static_cast<double>(threads);
      int64_t last_score_end = 0;
      for (const Span& c : spans_) {
        if (c.parent != s.id) continue;
        grid_cpu += w * cpu(c);
        if (EndsWith(c.name, ".predict")) {
          last_score_end = std::max(last_score_end, c.end_ns);
        }
      }
      for (const Span& c : spans_) {
        if (c.parent == s.id && EndsWith(c.name, ".fit") &&
            last_score_end > 0 && c.start_ns >= last_score_end) {
          refits += w;
          refit_s += w * wall(c);
        }
      }
    }
    add("ml.grid.search_s", {search_s, searched}, "s");
    add("ml.grid.cpu_s", {grid_cpu, searched}, "s");
    add("ml.grid.points", {points, searched}, "count");
    add("ml.grid.refits", {refits, searched}, "count");
    add("ml.grid.refit_s", {refit_s, searched}, "s");
    add("ml.grid.parallel_eff", {capacity > 0 ? grid_cpu / capacity : 0.0, searched},
        "ratio");

    // ml.svm, with the solver and kernel-cache counters of the timed
    // repetitions.
    Counters reps;
    bool counted = false;
    for (const StageRecord& st : stages_) {
      if (std::strcmp(st.name, "rep") != 0) continue;
      reps += st.delta;
      counted = true;
    }
    const double per_rep =
        result_.traced_reps > 0 ? 1.0 / static_cast<double>(result_.traced_reps) : 0.0;
    const auto svm_fits = sum(named("ml.svm.fit"), one);
    add("ml.svm.fit_s", sum(named("ml.svm.fit"), wall), "s");
    add("ml.svm.fit_cpu_s", sum(named("ml.svm.fit"), cpu), "s");
    add("ml.svm.fits", svm_fits, "count");
    const double lookups = static_cast<double>(reps.cache.hits + reps.cache.misses);
    const bool svm = svm_fits.second && counted;
    add("ml.svm.smo_iters", {per_rep * static_cast<double>(reps.smo.iterations), svm},
        "count");
    add("ml.svm.cache_hit_rate",
        {lookups > 0 ? static_cast<double>(reps.cache.hits) / lookups : 0.0, svm},
        "ratio");
    add("ml.svm.cache_misses", {per_rep * static_cast<double>(reps.cache.misses), svm},
        "count");
    add("ml.svm.shrinks", {per_rep * static_cast<double>(reps.smo.shrink_events), svm},
        "count");

    // Match counting (computed bytes: words x 8).
    add("ml.knn.predict_s", sum(named("ml.knn.predict"), wall), "s");
    add("ml.tree.fit_s", sum(named("ml.tree.fit"), wall), "s");
    const bool packed = counted && reps.packed.rows > 0;
    add("simd.packed_rows", {per_rep * static_cast<double>(reps.packed.rows), packed},
        "count");
    add("simd.words_per_row",
        {reps.packed.rows > 0 ? static_cast<double>(reps.packed.build_words) /
                                    static_cast<double>(reps.packed.rows)
                              : 0.0,
         packed},
        "words");
    add("simd.eval_words", {per_rep * static_cast<double>(reps.packed.eval_words),
                            counted && reps.packed.evals > 0},
        "count");
    add("simd.eval_bytes", {per_rep * 8.0 * static_cast<double>(reps.packed.eval_words),
                            counted && reps.packed.evals > 0},
        "B");

    add("ml.nb.fit_s", sum(named("ml.nb.fit"), wall), "s");
    add("ml.logreg.fit_s", sum(named("ml.logreg.fit"), wall), "s");
    auto ml_predict = [](const Span& s) {
      return std::strncmp(s.name, "ml.", 3) == 0 && EndsWith(s.name, ".predict");
    };
    add("ml.predict_s", sum(ml_predict, wall), "s");
    add("ml.predict_rows", sum(ml_predict, rows), "count");

    add("synth.generate_s", sum(named("synth.generate"), wall), "s");
    add("synth.rows", sum(named("synth.generate"), rows), "count");
    add("relational.prepare_s", sum(named("relational.prepare"), wall), "s");
    add("relational.joined_rows", sum(named("relational.prepare"), rows), "count");

    add("io.save_s", sum(named("io.save"), wall), "s");
    add("io.load_s", sum(named("io.load"), wall), "s");
    add("io.model_bytes", sum(named("io.save"), rows), "B");

    // Serving, over the closed-loop passes (the timed repetitions).
    const auto batches = sum(named("serve.predict"), one);
    const auto predict = sum(named("serve.predict"), wall);
    const auto batch_rows = sum(named("serve.predict"), rows);
    double pass_wall = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == 0 && std::strcmp(s.name, "rep") == 0) {
        pass_wall += per_rep * wall(s);
      }
    }
    add("serve.predict_s", predict, "s");
    add("serve.batches", batches, "count");
    add("serve.batch_rows_mean",
        {batches.first > 0 ? batch_rows.first / batches.first : 0.0, batches.second},
        "rows");
    add("serve.model_share",
        {pass_wall > 0 ? predict.first / pass_wall : 0.0, batches.second}, "ratio");
    for (const auto& [name, unit] : kFigureUnits) {
      Metric metric{name, 0.0, unit, false};
      for (const Figure& f : result_.figures) {
        if (f.name == name) {
          metric.value = f.value;
          metric.exercised = f.measured;
        }
      }
      m.push_back(metric);
    }

    // Allocations on every thread inside traced spans: sum each thread's
    // outermost spans only, since inner spans are counted inside them.
    auto thread_root = [&](const Span& s) {
      auto it = index_.find(s.parent);
      return it == index_.end() || spans_[it->second].thread != s.thread;
    };
    add("alloc.count", sum(thread_root, allocs), "count");
    add("alloc.bytes",
        sum(thread_root, [](const Span& s) { return static_cast<double>(s.alloc_bytes); }),
        "B");

    // Process CPU per result set, from the untraced repetitions. Not an
    // end-to-end metric: with the server's threads it swung 28% between
    // runs of the same code on a shared host, beyond any allowed bound.
    add("cpu_s", {Median(result_.cpu_s), !result_.cpu_s.empty()}, "s");

    const bool both = !result_.run_s.empty() && !result_.traced_run_s.empty();
    add("trace.overhead_s",
        {both ? Median(result_.traced_run_s) - Median(result_.run_s) : 0.0, both},
        "s");
    return m;
  }

 private:
  static bool EndsWith(const char* s, const char* suffix) {
    const size_t n = std::strlen(s), k = std::strlen(suffix);
    return n >= k && std::strcmp(s + n - k, suffix) == 0;
  }

  /// 1 / (traced set-ups) for set-up work, 1 / (traced repetitions) for
  /// timed work, 0 for anything else (the server start).
  double Weight(const Span& s) const {
    const Span* root = &s;
    for (int depth = 0; root->parent != 0 && depth < 64; ++depth) {
      auto it = index_.find(root->parent);
      if (it == index_.end()) break;
      root = &spans_[it->second];
    }
    if (std::strcmp(root->name, "setup") == 0 && result_.traced_setups > 0) {
      return 1.0 / static_cast<double>(result_.traced_setups);
    }
    if (std::strcmp(root->name, "rep") == 0 && result_.traced_reps > 0) {
      return 1.0 / static_cast<double>(result_.traced_reps);
    }
    return 0.0;
  }

  const WorkloadResult& result_;
  std::vector<Span> spans_;
  std::vector<StageRecord> stages_;
  std::map<uint32_t, size_t> index_;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "hamlet_perf: %s\nusage: hamlet_perf --workload "
               "grid-highcap|mc-reponexr|serve-socket --seed N --seconds S "
               "--trace 0|1 --reference-dir DIR [--write-reference] "
               "[--trace-out FILE] [--commit SHA] [--source-digest HEX]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string trace_out, commit = "unknown", digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--write-reference") {
      opts.write_reference = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--reference-dir") {
      opts.reference_dir = v;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--source-digest") {
      digest = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  WorkloadResult result;
  if (opts.workload == "grid-highcap") {
    result = RunGridHighcap(opts);
  } else if (opts.workload == "mc-reponexr") {
    result = RunMcReponexr(opts);
  } else if (opts.workload == "serve-socket") {
    result = RunServeSocket(opts);
  } else {
    return Usage(("unknown workload \"" + opts.workload + "\"").c_str());
  }
  if (result.run_s.empty()) result.Fail(1, "no untraced repetition ran");

  std::vector<Metric> e2e = {
      {"setup_s", Median(result.setup_s), "s"},
      {"run_s", Median(result.run_s), "s"},
      {"peak_rss_mb", result.peak_rss_mb, "MB"},
  };
  std::vector<Metric> layers;
  if (opts.trace) {
    const std::vector<Span> spans = CollectSpans();
    const std::vector<StageRecord> stages = CollectStages();
    if (!trace_out.empty() && !WriteTrace(trace_out, spans, stages)) {
      result.Fail(1, "cannot write the trace to " + trace_out);
    }
    layers = LayerAggregator(result, spans, stages).Compute();
  }

  for (const std::string& line : result.details) std::printf("[perfbench] %s\n", line.c_str());
  for (const std::string& note : result.notes) {
    std::printf("[perfbench] FAILED: %s\n", note.c_str());
  }
  std::string not_exercised;
  for (const Metric& m : layers) {
    if (!m.exercised) not_exercised += (not_exercised.empty() ? "" : " ") + m.name;
  }
  if (!not_exercised.empty()) {
    std::printf("[perfbench] not exercised by %s (reported as 0): %s\n",
                opts.workload.c_str(), not_exercised.c_str());
  }

  // The detail line: fingerprint, repetition counts, every figure.
  std::string d = "{\"perfbench\":{\"workload\":\"" + opts.workload +
                  "\",\"seed\":" + std::to_string(opts.seed) +
                  ",\"trace\":" + (opts.trace ? "1" : "0") + ",\"fingerprint\":{";
  d += "\"nproc\":" + std::to_string(hamlet::parallel::HardwareThreads());
  d += ",\"cpu_model\":\"" + JsonEscape(CpuModel()) + "\"";
  d += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  d += ",\"compiler\":\"" PERFBENCH_COMPILER "\"";
  d += ",\"commit\":\"" + JsonEscape(commit) + "\"";
  d += ",\"source_digest\":\"" + JsonEscape(digest) + "\"";
  d += ",\"HAMLET_THREADS\":" + std::to_string(hamlet::parallel::ConfiguredThreads());
  d += ",\"HAMLET_SIMD\":\"" +
       std::string(hamlet::simd::BackendName(hamlet::simd::ActiveBackend())) + "\"";
  d += ",\"HAMLET_SERVE_BATCH\":" + std::to_string(hamlet::serve::ConfiguredBatchSize());
  d += ",\"HAMLET_SMO_CACHE_MB\":" +
       std::to_string(hamlet::ml::KernelCacheBytesFromEnv() >> 20);
  d += "},\"setups\":" + std::to_string(result.setup_s.size());
  d += ",\"reps\":" + std::to_string(result.run_s.size());
  d += ",\"traced_reps\":" + std::to_string(result.traced_reps);
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + Num(v[i]);
    return out + "]";
  };
  d += ",\"run_s_reps\":" + list(result.run_s);
  d += ",\"cpu_s\":" + Num(Median(result.cpu_s));
  d += ",\"cpu_s_reps\":" + list(result.cpu_s);
  d += ",\"traced_run_s_reps\":" + list(result.traced_run_s);
  d += ",\"setup_s_reps\":" + list(result.setup_s);
  d += ",\"ops\":" + std::to_string(result.attempted);
  d += ",\"ops_failed\":" + std::to_string(result.failed);
  d += ",\"figures\":{";
  for (size_t i = 0; i < result.figures.size(); ++i) {
    const Figure& f = result.figures[i];
    d += std::string(i ? "," : "") + "\"" + f.name + "\":{\"value\":" + Num(f.value) +
         ",\"unit\":\"" + FigureUnit(f.name) + "\",\"samples\":" + std::to_string(f.samples) +
         ",\"measured\":" + (f.measured ? "true" : "false") + "}";
  }
  d += "}}}";
  std::printf("%s\n", d.c_str());

  const bool correct = result.failed == 0;
  std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(std::max<uint64_t>(1, result.attempted)) +
                    ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  const std::vector<Metric>& shown = opts.trace ? layers : e2e;
  for (size_t i = 0; i < shown.size(); ++i) {
    out += std::string(i ? "," : "") + "\"" + shown[i].name + "\":{\"value\":" +
           Num(shown[i].value) + ",\"unit\":\"" + shown[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
