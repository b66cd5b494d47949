#include "hamlet/data/packed_code_matrix.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "hamlet/common/counters.h"

namespace hamlet {

namespace detail {

void PackedCodeMatrixIndexAbort(size_t i, size_t j, size_t num_rows,
                                size_t num_features) {
  std::fprintf(stderr,
               "hamlet: PackedCodeMatrix access (%zu, %zu) out of bounds "
               "for %zu x %zu matrix\n",
               i, j, num_rows, num_features);
  std::abort();
}

}  // namespace detail

PackedCodeMatrix::PackedCodeMatrix(const simd::PackedLayout& layout,
                                   const uint32_t* codes, size_t num_rows)
    : layout_(layout), num_rows_(num_rows) {
  words_.assign(num_rows_ * layout_.words_per_row, 0);
  for (size_t i = 0; i < num_rows_; ++i) {
    layout_.PackRow(codes + i * layout_.num_features,
                    words_.data() + i * layout_.words_per_row);
  }
  counters::Add(counters::Counter::kPackedBuilds, 1);
  counters::Add(counters::Counter::kPackedRows, num_rows_);
  counters::Add(counters::Counter::kPackedBuildWords, words_.size());
}

PackedCodeMatrix::PackedCodeMatrix(const simd::PackedLayout& layout,
                                   const CodeMatrix& m)
    : PackedCodeMatrix(layout, m.codes().data(), m.num_rows()) {
  assert(layout.num_features == m.num_features());
}

PackedCodeMatrix::PackedCodeMatrix(const CodeMatrix& m)
    : PackedCodeMatrix(simd::PackedLayout::ForDomains(m.domain_sizes().data(),
                                                      m.num_features()),
                       m) {}

uint64_t* ThreadLocalPackScratch(size_t words) {
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  return scratch.data();
}

}  // namespace hamlet
