#include "trace.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

thread_local AllocTotals t_allocs;
thread_local std::vector<uint32_t> t_open;  // ids of this thread's open spans
thread_local uint32_t t_thread_index = 0;

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};
std::atomic<uint32_t> g_ambient{0};  // innermost open ambient span

std::mutex g_mu;
std::vector<Span> g_spans;
std::vector<StageRecord> g_stages;

uint32_t ThreadIndex() {
  if (t_thread_index == 0) t_thread_index = g_next_thread.fetch_add(1);
  return t_thread_index;
}

}  // namespace

void NoteAllocation(size_t bytes) {
  ++t_allocs.count;
  t_allocs.bytes += bytes;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

Counters Counters::Read() {
  Counters c;
  c.smo = hamlet::ml::GlobalSmoTotals();
  c.cache = hamlet::ml::GlobalKernelCacheTotals();
  c.packed = hamlet::simd::GlobalPackedStats();
  return c;
}

Counters Counters::operator-(const Counters& e) const {
  Counters d;
  d.smo.fits = smo.fits - e.smo.fits;
  d.smo.iterations = smo.iterations - e.smo.iterations;
  d.smo.shrink_events = smo.shrink_events - e.smo.shrink_events;
  d.smo.unshrink_events = smo.unshrink_events - e.smo.unshrink_events;
  d.cache.hits = cache.hits - e.cache.hits;
  d.cache.misses = cache.misses - e.cache.misses;
  d.packed.builds = packed.builds - e.packed.builds;
  d.packed.rows = packed.rows - e.packed.rows;
  d.packed.build_words = packed.build_words - e.packed.build_words;
  d.packed.evals = packed.evals - e.packed.evals;
  d.packed.eval_words = packed.eval_words - e.packed.eval_words;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  smo.fits += o.smo.fits;
  smo.iterations += o.smo.iterations;
  smo.shrink_events += o.smo.shrink_events;
  smo.unshrink_events += o.smo.unshrink_events;
  cache.hits += o.cache.hits;
  cache.misses += o.cache.misses;
  packed.builds += o.packed.builds;
  packed.rows += o.packed.rows;
  packed.build_words += o.packed.build_words;
  packed.evals += o.packed.evals;
  packed.eval_words += o.packed.eval_words;
  return *this;
}

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::vector<StageRecord> CollectStages() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_stages;
}

ScopedSpan::ScopedSpan(const char* name, bool ambient) {
  if (!TracingEnabled()) return;
  active_ = true;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.thread = ThreadIndex();
  span_.name = name;
  span_.parent = t_open.empty() ? g_ambient.load() : t_open.back();
  ambient_ = ambient;
  if (ambient_) saved_ambient_ = g_ambient.exchange(span_.id);
  t_open.push_back(span_.id);
  alloc_start_ = t_allocs;
  span_.cpu_ns = ThreadCpuNs();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  span_.cpu_ns = ThreadCpuNs() - span_.cpu_ns;
  span_.allocs = t_allocs.count - alloc_start_.count;
  span_.alloc_bytes = t_allocs.bytes - alloc_start_.bytes;
  t_open.pop_back();
  if (ambient_) g_ambient.store(saved_ambient_);
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(std::move(span_));
}

ScopedStage::ScopedStage(const char* name)
    : span_(name, /*ambient=*/true), name_(name), start_(Counters::Read()) {}

ScopedStage::~ScopedStage() {
  if (!TracingEnabled() || span_.id() == 0) return;
  StageRecord rec;
  rec.span = span_.id();
  rec.name = name_;
  rec.delta = Counters::Read() - start_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_stages.push_back(std::move(rec));
}

int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start_ns);
    c.second = std::min(c.second, end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start_ns;
  for (const auto& [s, e] : children) {
    const int64_t from = std::max(s, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return (end_ns - start_ns) - covered;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<StageRecord>& stages) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children;
  std::vector<size_t> index_of;  // span id -> position in `spans`
  uint32_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  index_of.assign(max_id + 1, spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  children.resize(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= max_id &&
        index_of[s.parent] < spans.size()) {
      children[index_of[s.parent]].emplace_back(s.start_ns, s.end_ns);
    }
  }
  const int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(
        f,
        "{\"span\":%u,\"parent\":%u,\"thread\":%u,\"name\":\"%s\","
        "\"start_us\":%.3f,\"end_us\":%.3f,\"wall_us\":%.3f,"
        "\"self_us\":%.3f,\"cpu_us\":%.3f,\"allocs\":%llu,"
        "\"alloc_bytes\":%llu,\"rows\":%llu}\n",
        s.id, s.parent, s.thread, s.name,
        1e-3 * static_cast<double>(s.start_ns - epoch),
        1e-3 * static_cast<double>(s.end_ns - epoch),
        1e-3 * static_cast<double>(s.wall_ns()),
        1e-3 * static_cast<double>(
                   SelfTimeNs(s.start_ns, s.end_ns, children[i])),
        1e-3 * static_cast<double>(s.cpu_ns),
        static_cast<unsigned long long>(s.allocs),
        static_cast<unsigned long long>(s.alloc_bytes),
        static_cast<unsigned long long>(s.rows));
  }
  for (const StageRecord& st : stages) {
    const Counters& d = st.delta;
    std::fprintf(
        f,
        "{\"stage\":\"%s\",\"span\":%u,\"smo_fits\":%llu,\"smo_iters\":%llu,"
        "\"shrinks\":%llu,\"unshrinks\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"packed_builds\":%llu,\"packed_rows\":%llu,"
        "\"packed_build_words\":%llu,\"packed_evals\":%llu,"
        "\"packed_eval_words\":%llu}\n",
        st.name, st.span,
        static_cast<unsigned long long>(d.smo.fits),
        static_cast<unsigned long long>(d.smo.iterations),
        static_cast<unsigned long long>(d.smo.shrink_events),
        static_cast<unsigned long long>(d.smo.unshrink_events),
        static_cast<unsigned long long>(d.cache.hits),
        static_cast<unsigned long long>(d.cache.misses),
        static_cast<unsigned long long>(d.packed.builds),
        static_cast<unsigned long long>(d.packed.rows),
        static_cast<unsigned long long>(d.packed.build_words),
        static_cast<unsigned long long>(d.packed.evals),
        static_cast<unsigned long long>(d.packed.eval_words));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
