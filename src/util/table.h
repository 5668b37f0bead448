// Plain-text table rendering for the benchmark harness. Every bench
// binary prints paper-style tables (Table II..VI) through this renderer
// so output formatting stays uniform, plus CSV export for plotting.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace patchdb::util {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Set the header row. Must be called before adding rows.
  void set_header(std::vector<std::string> header);

  /// Append a data row; must match the header width.
  void add_row(std::vector<std::string> row);

  /// Append a full-width separator line between row groups.
  void add_separator();

  /// Footnote printed under the table (paper tables carry footnotes).
  void add_note(std::string note);

  std::size_t row_count() const noexcept { return rows_.size(); }

  /// Render with box-drawing in a fixed-width grid.
  std::string render() const;

  /// Render as CSV (title and notes omitted).
  std::string to_csv() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
};

/// `value` in fixed notation with `decimals` digits after the point,
/// byte for byte what printf("%.*f") writes, however long: the bench
/// tables, the obs reports and the store's features.csv all format
/// through it.
std::string format_double(double value, int decimals);
/// format_double(fraction * 100, decimals) and a '%'.
std::string format_percent(double fraction, int decimals);

}  // namespace patchdb::util
