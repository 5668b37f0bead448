#include "util/table.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace patchdb::util {

void Table::set_header(std::vector<std::string> header) {
  if (!rows_.empty()) throw std::logic_error("Table: header after rows");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  if (!header_.empty() && row.size() != header_.size()) {
    throw std::invalid_argument("Table: row width != header width");
  }
  rows_.push_back(Row{std::move(row), false});
}

void Table::add_separator() { rows_.push_back(Row{{}, true}); }

void Table::add_note(std::string note) { notes_.push_back(std::move(note)); }

std::string Table::render() const {
  const std::size_t cols = header_.size();
  std::vector<std::size_t> width(cols, 0);
  for (std::size_t c = 0; c < cols; ++c) width[c] = header_[c].size();
  for (const Row& r : rows_) {
    if (r.separator) continue;
    for (std::size_t c = 0; c < r.cells.size() && c < cols; ++c) {
      width[c] = std::max(width[c], r.cells[c].size());
    }
  }

  auto rule = [&](char fill) {
    std::string line = "+";
    for (std::size_t c = 0; c < cols; ++c) {
      line.append(width[c] + 2, fill);
      line += '+';
    }
    line += '\n';
    return line;
  };
  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string& cell = (c < cells.size()) ? cells[c] : std::string();
      line += ' ';
      line += cell;
      line.append(width[c] - cell.size() + 1, ' ');
      line += '|';
    }
    line += '\n';
    return line;
  };

  std::string out;
  if (!title_.empty()) out += "== " + title_ + " ==\n";
  out += rule('-');
  out += render_row(header_);
  out += rule('=');
  for (const Row& r : rows_) {
    out += r.separator ? rule('-') : render_row(r.cells);
  }
  out += rule('-');
  for (const std::string& n : notes_) out += "  note: " + n + "\n";
  return out;
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (char c : cell) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  std::string out;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c != 0) out += ',';
    out += escape(header_[c]);
  }
  out += '\n';
  for (const Row& r : rows_) {
    if (r.separator) continue;
    for (std::size_t c = 0; c < r.cells.size(); ++c) {
      if (c != 0) out += ',';
      out += escape(r.cells[c]);
    }
    out += '\n';
  }
  return out;
}

std::string format_double(double value, int decimals) {
  if (decimals < 0) decimals = 6;  // as printf reads a negative precision
  // Most values fit here; to_chars fails rather than truncates when not.
  char buf[64];
  if (const auto [end, ec] = std::to_chars(buf, std::end(buf), value,
                                           std::chars_format::fixed, decimals);
      ec == std::errc{}) {
    return std::string(buf, end);
  }
  // A sign, DBL_MAX's 309 integer digits, the point and the decimals.
  std::string out(std::numeric_limits<double>::max_exponent10 + 3 +
                      static_cast<std::size_t>(decimals),
                  '\0');
  const char* end = std::to_chars(out.data(), out.data() + out.size(), value,
                                  std::chars_format::fixed, decimals)
                        .ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

std::string format_percent(double fraction, int decimals) {
  return format_double(fraction * 100.0, decimals) + '%';
}

}  // namespace patchdb::util
