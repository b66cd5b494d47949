#include "hamlet/relational/csv.h"

#include <sstream>
#include <unordered_map>

#include "hamlet/common/stringx.h"

namespace hamlet {

Result<CsvTable> ReadCsv(const std::string& text) {
  std::vector<std::string> lines;
  {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!TrimString(line).empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) return Status::InvalidArgument("empty CSV input");

  const std::vector<std::string> header = SplitString(lines[0], ',');
  const size_t ncols = header.size();

  // First pass: build per-column dictionaries.
  std::vector<std::vector<std::string>> dicts(ncols);
  std::vector<std::unordered_map<std::string, uint32_t>> code_of(ncols);
  std::vector<std::vector<uint32_t>> rows;
  rows.reserve(lines.size() - 1);
  for (size_t r = 1; r < lines.size(); ++r) {
    const std::vector<std::string> fields = SplitString(lines[r], ',');
    if (fields.size() != ncols) {
      return Status::InvalidArgument("CSV row " + std::to_string(r) +
                                     " has wrong arity");
    }
    std::vector<uint32_t> codes(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const std::string v = TrimString(fields[c]);
      auto it = code_of[c].find(v);
      if (it == code_of[c].end()) {
        const uint32_t code = static_cast<uint32_t>(dicts[c].size());
        code_of[c].emplace(v, code);
        dicts[c].push_back(v);
        codes[c] = code;
      } else {
        codes[c] = it->second;
      }
    }
    rows.push_back(std::move(codes));
  }

  TableSchema schema;
  for (size_t c = 0; c < ncols; ++c) {
    Status st = schema.AddColumn(ColumnSpec{
        TrimString(header[c]), static_cast<uint32_t>(dicts[c].size())});
    if (!st.ok()) return st;
  }
  Table table(schema);
  table.Reserve(rows.size());
  for (const auto& row : rows) table.AppendRowUnchecked(row);

  return CsvTable{std::move(table), std::move(dicts)};
}

}  // namespace hamlet
