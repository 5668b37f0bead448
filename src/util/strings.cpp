#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace patchdb::util {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t pos = text.find('\n', start);
    if (pos == std::string_view::npos) {
      std::string_view line = text.substr(start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      out.push_back(line);
      break;
    }
    std::string_view line = text.substr(start, pos - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out.push_back(line);
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view trim_left(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  return text.substr(i);
}

std::string_view trim_right(std::string_view text) {
  std::size_t n = text.size();
  while (n > 0 && std::isspace(static_cast<unsigned char>(text[n - 1]))) --n;
  return text.substr(0, n);
}

std::string_view trim(std::string_view text) { return trim_right(trim_left(text)); }

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string join_views(const std::vector<std::string_view>& parts,
                       std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      return out;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string extension(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string_view base =
      (slash == std::string_view::npos) ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string_view::npos || dot == 0) return "";
  return to_lower(base.substr(dot));
}

bool parse_size(std::string_view text, std::size_t& out) {
  // from_chars takes no sign, space or base prefix for an unsigned
  // type, and reports overflow instead of wrapping.
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return false;
  out = value;
  return true;
}

std::string human_count(std::size_t n) {
  char buf[32];
  if (n >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10000) {
    std::snprintf(buf, sizeof(buf), "%.0fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu", n);
  }
  return buf;
}

}  // namespace patchdb::util
