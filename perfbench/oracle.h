// Output checks behind every workload's `failed` count.
//
// Experiment workloads produce a ResultTable: one keyed line per grid
// cell or Monte-Carlo series ("Yelp svm-rbf JoinAll" -> "test=... ").
// For the default seed it must equal the reference committed under
// perfbench/reference/; for every seed it must equal the table the same
// process produced on its first repetition (the library promises
// bit-identical results at any thread count). Serving checks each
// response line against the loaded model's in-process prediction.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/data/view.h"
#include "hamlet/ml/classifier.h"

namespace perfbench {

/// Ordered (key, value) rows.
using ResultTable = std::vector<std::pair<std::string, std::string>>;

/// "key\tvalue\n" per row, and its inverse (blank and '#' lines skipped).
std::string FormatTable(const ResultTable& table);
ResultTable ParseTable(const std::string& text);

/// Rows whose value differs from `want`, plus keys present in only one of
/// the two tables. Each mismatch is described in `notes` when non-null.
size_t CountTableMismatches(const ResultTable& got, const ResultTable& want,
                            std::vector<std::string>* notes);

/// Positions where `got` differs from `want`; a length mismatch counts
/// every row of the longer vector that has no partner as wrong too.
size_t CountPredictionMismatches(const std::vector<uint8_t>& got,
                                 const std::vector<uint8_t>& want);

/// Rows where model.PredictAll(view) disagrees with per-row Predict.
size_t PredictAllMismatches(const hamlet::ml::Classifier& model,
                            const hamlet::DataView& view);

/// True when a serving response line is exactly the expected prediction.
bool ResponseMatches(const char* line, size_t len, uint8_t expected);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
