// CSV import for categorical tables.
//
// Categorical values are stored as integer codes internally; reading maps
// distinct strings to codes (building the domain) and remembers the
// strings. Used by the examples.

#ifndef HAMLET_RELATIONAL_CSV_H_
#define HAMLET_RELATIONAL_CSV_H_

#include <string>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/relational/table.h"

namespace hamlet {

/// A table read from CSV plus the per-column code -> string dictionaries.
struct CsvTable {
  Table table;
  std::vector<std::vector<std::string>> dictionaries;
};

/// Parses CSV text (first line = header) into a categorical table. Every
/// column becomes categorical; the domain is the set of distinct strings in
/// order of first appearance.
Result<CsvTable> ReadCsv(const std::string& text);

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_CSV_H_
