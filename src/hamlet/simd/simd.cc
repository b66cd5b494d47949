#include "hamlet/simd/simd.h"

#include <algorithm>
#include <cassert>

#include "hamlet/common/counters.h"
#include "hamlet/simd/simd_native.h"

namespace hamlet {
namespace simd {

namespace {

/// One (row, feature) pass of the NB counting loop; shared by every lane.
inline void CountOneRow(const uint32_t* row, uint8_t label, size_t d,
                        const size_t* offsets, uint32_t* counts) {
  for (size_t j = 0; j < d; ++j) {
    counts[offsets[j] + static_cast<size_t>(row[j]) * 2 + label] += 1;
  }
}

}  // namespace

const char* BackendName(Backend backend) {
  return backend == Backend::kNative ? "native" : "swar";
}

Backend ActiveBackend() {
  return detail::NativeSupported() ? Backend::kNative : Backend::kSwar;
}

PackedLayout PackedLayout::ForMaxCode(uint32_t max_code, size_t d) {
  uint32_t value_bits = 1;
  while (value_bits < 32 && (max_code >> value_bits) != 0) ++value_bits;
  PackedLayout layout;
  layout.num_features = d;
  layout.field_bits = value_bits + 1;
  layout.fields_per_word = 64 / layout.field_bits;
  layout.words_per_row =
      d == 0 ? 0
             : (d + layout.fields_per_word - 1) / layout.fields_per_word;
  for (size_t f = 0; f < layout.fields_per_word; ++f) {
    const size_t base = f * layout.field_bits;
    layout.guard_mask |= uint64_t{1} << (base + layout.field_bits - 1);
    layout.add_mask |= ((uint64_t{1} << (layout.field_bits - 1)) - 1)
                       << base;
  }
  return layout;
}

PackedLayout PackedLayout::ForDomains(const uint32_t* domains, size_t d) {
  uint32_t max_code = 0;
  for (size_t j = 0; j < d; ++j) {
    if (domains[j] > 0) max_code = std::max(max_code, domains[j] - 1);
  }
  return ForMaxCode(max_code, d);
}

void PackedLayout::PackRow(const uint32_t* codes, uint64_t* out) const {
#ifndef NDEBUG
  const uint64_t value_mask = (uint64_t{1} << (field_bits - 1)) - 1;
#endif
  size_t j = 0;
  for (size_t w = 0; w < words_per_row; ++w) {
    uint64_t word = 0;
    const size_t in_word = std::min(num_features - j, fields_per_word);
    for (size_t f = 0; f < in_word; ++f, ++j) {
      assert(static_cast<uint64_t>(codes[j]) <= value_mask);
      word |= static_cast<uint64_t>(codes[j]) << (f * field_bits);
    }
    out[w] = word;
  }
}

uint32_t PackedLayout::UnpackCode(const uint64_t* row, size_t j) const {
  assert(j < num_features);
  const size_t w = j / fields_per_word;
  const size_t f = j % fields_per_word;
  const uint64_t value_mask = (uint64_t{1} << (field_bits - 1)) - 1;
  return static_cast<uint32_t>((row[w] >> (f * field_bits)) & value_mask);
}

void PackedMatchCounts(const PackedLayout& layout, const uint64_t* query,
                       const uint64_t* rows, const int32_t* indices,
                       size_t n, uint32_t* counts) {
  if (!detail::NativeSupported()) {
    detail::MatchCountsSwar(layout, query, rows, indices, n, counts);
    return;
  }
  detail::MatchCountsPopcount(layout, query, rows, indices, n, counts);
}

SmoExtremes SmoScanScores(const SmoActiveView& view) {
#ifdef HAMLET_X86_NATIVE
  if (detail::Avx2Supported()) return detail::SmoScanAvx2(view, nullptr);
#endif
  return detail::SmoScanScalar(view, nullptr);
}

SmoExtremes SmoRefreshScan(const SmoActiveView& view,
                           const SmoRefresh& refresh) {
#ifdef HAMLET_X86_NATIVE
  if (detail::Avx2Supported()) return detail::SmoScanAvx2(view, &refresh);
#endif
  return detail::SmoScanScalar(view, &refresh);
}

size_t SmoSelectJ(const SmoActiveView& view, const float* row_i,
                  double kii, double up_best, float* row_i_out) {
#ifdef HAMLET_X86_NATIVE
  if (detail::Avx2Supported()) {
    return detail::SmoSelectJAvx2(view, row_i, kii, up_best, row_i_out);
  }
#endif
  return detail::SmoSelectJScalar(view, row_i, kii, up_best, row_i_out);
}

const MlpKernels& HostMlpKernels() {
#ifdef HAMLET_X86_NATIVE
  if (detail::Avx2Supported()) return detail::MlpKernelsAvx2();
#endif
  return detail::MlpKernelsBaseline();
}

void CountCodeLabelPairs(const uint32_t* codes, const uint8_t* labels,
                         size_t n, size_t d, const size_t* offsets,
                         uint32_t* counts) {
  // Lane splitting breaks the store-to-load dependency between adjacent
  // rows hitting the same histogram cell; the lane sums are integers, so
  // the totals equal a plain row-order loop's.
  constexpr size_t kLanes = 4;
  const size_t total = offsets[d];
  if (d == 0 || n < kLanes * 4) {
    for (size_t i = 0; i < n; ++i) {
      CountOneRow(codes + i * d, labels[i], d, offsets, counts);
    }
    return;
  }
  std::vector<uint32_t> extra((kLanes - 1) * total, 0);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    CountOneRow(codes + i * d, labels[i], d, offsets, counts);
    for (size_t l = 1; l < kLanes; ++l) {
      CountOneRow(codes + (i + l) * d, labels[i + l], d, offsets,
                  extra.data() + (l - 1) * total);
    }
  }
  for (; i < n; ++i) {
    CountOneRow(codes + i * d, labels[i], d, offsets, counts);
  }
  for (size_t l = 1; l < kLanes; ++l) {
    const uint32_t* lane = extra.data() + (l - 1) * total;
    for (size_t k = 0; k < total; ++k) counts[k] += lane[k];
  }
}

void SplitStatsScan(const uint32_t* codes, size_t num_features,
                    const uint8_t* labels, const uint32_t* row_ids, size_t n,
                    size_t feature, uint32_t* count, uint32_t* pos_count,
                    std::vector<uint32_t>& touched) {
  // The gathers (row id -> code, label) are unrolled so several loads are
  // in flight; the stat updates stay in row order, which keeps `touched`
  // (first-seen order) and all counts identical to a per-row loop.
  constexpr size_t kUnroll = 4;
  const auto update = [&](uint32_t c, uint8_t label) {
    if (count[c] == 0) touched.push_back(c);
    ++count[c];
    pos_count[c] += label;
  };
  size_t i = 0;
  uint32_t c[kUnroll];
  uint8_t l[kUnroll];
  for (; i + kUnroll <= n; i += kUnroll) {
    for (size_t u = 0; u < kUnroll; ++u) {
      const size_t r = row_ids[i + u];
      c[u] = codes[r * num_features + feature];
      l[u] = labels[r];
    }
    for (size_t u = 0; u < kUnroll; ++u) update(c[u], l[u]);
  }
  for (; i < n; ++i) {
    const size_t r = row_ids[i];
    update(codes[r * num_features + feature], labels[r]);
  }
}

PackedStats GlobalPackedStats() {
  using counters::Counter;
  const counters::Snapshot now = counters::Read();
  return {now[Counter::kPackedBuilds], now[Counter::kPackedRows],
          now[Counter::kPackedBuildWords], now[Counter::kPackedEvals],
          now[Counter::kPackedEvalWords]};
}

}  // namespace simd
}  // namespace hamlet
