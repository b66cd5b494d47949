#include "hamlet/common/counters.h"

namespace hamlet {
namespace counters {

namespace detail {
std::array<std::atomic<uint64_t>, kNumCounters> g_counts{};
}  // namespace detail

Snapshot Snapshot::operator-(const Snapshot& start) const {
  Snapshot d;
  for (size_t c = 0; c < kNumCounters; ++c) {
    d.values_[c] = values_[c] - start.values_[c];
  }
  return d;
}

Snapshot Read() {
  Snapshot s;
  for (size_t c = 0; c < kNumCounters; ++c) {
    s.values_[c] = detail::g_counts[c].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace counters
}  // namespace hamlet
