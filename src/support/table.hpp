// Plain-text table emission for bench harness output.
//
// Every bench binary prints the same rows/series the paper reports; this
// formatter keeps those tables aligned.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dls {

/// Column-aligned text table with a header row.
class TextTable {
public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double v, int precision = 4);

  /// Renders with single-space-padded columns and a rule under the header.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dls
