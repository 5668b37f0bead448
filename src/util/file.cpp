#include "util/file.h"

#include <fstream>
#include <iterator>
#include <system_error>

namespace patchdb::util {

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string content;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) {
    content.resize(static_cast<std::size_t>(size));
    in.read(content.data(), static_cast<std::streamsize>(size));
    content.resize(static_cast<std::size_t>(in.gcount()));
  }
  try {
    content.append(std::istreambuf_iterator<char>(in), {});
  } catch (const std::ios_base::failure&) {
    return std::nullopt;  // the stream buffer reports a failed read (EISDIR, EIO)
  }
  if (in.bad()) return std::nullopt;
  return content;
}

}  // namespace patchdb::util
