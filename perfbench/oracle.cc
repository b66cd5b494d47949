#include "oracle.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace perfbench {

std::string FormatTable(const ResultTable& table) {
  std::string out;
  for (const auto& [key, value] : table) out += key + "\t" + value + "\n";
  return out;
}

ResultTable ParseTable(const std::string& text) {
  ResultTable table;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      table.emplace_back(line, "");
    } else {
      table.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
  }
  return table;
}

size_t CountTableMismatches(const ResultTable& got, const ResultTable& want,
                            std::vector<std::string>* notes) {
  const std::map<std::string, std::string> expected(want.begin(), want.end());
  std::map<std::string, bool> seen;
  size_t mismatches = 0;
  for (const auto& [key, value] : got) {
    seen[key] = true;
    auto it = expected.find(key);
    if (it == expected.end() || it->second != value) {
      ++mismatches;
      if (notes != nullptr) {
        notes->push_back(key + ": got \"" + value + "\", want \"" +
                         (it == expected.end() ? "<no row>" : it->second) +
                         "\"");
      }
    }
  }
  for (const auto& [key, value] : want) {
    if (seen.count(key) == 0) {
      ++mismatches;
      if (notes != nullptr) notes->push_back(key + ": missing");
    }
  }
  return mismatches;
}

size_t CountPredictionMismatches(const std::vector<uint8_t>& got,
                                 const std::vector<uint8_t>& want) {
  const size_t common = std::min(got.size(), want.size());
  size_t wrong = std::max(got.size(), want.size()) - common;
  for (size_t i = 0; i < common; ++i) wrong += got[i] != want[i];
  return wrong;
}

size_t PredictAllMismatches(const hamlet::ml::Classifier& model,
                            const hamlet::DataView& view) {
  const std::vector<uint8_t> batch = model.PredictAll(view);
  std::vector<uint8_t> rows(view.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = model.Predict(view, i);
  return CountPredictionMismatches(batch, rows);
}

bool ResponseMatches(const char* line, size_t len, uint8_t expected) {
  return len == 1 && line[0] == static_cast<char>('0' + expected);
}

}  // namespace perfbench
