// Whole-file reading: the one reader every layer uses to load a file in
// one piece (store bodies and manifests, obs reports, CLI inputs).
#pragma once

#include <filesystem>
#include <optional>
#include <string>

namespace patchdb::util {

/// The whole content of `path`. A regular file is read into a buffer
/// sized from its length, in one read; anything past that length (a
/// pipe, a file that grew) is appended. nullopt when the file cannot be
/// opened or a read fails; callers phrase their own error.
std::optional<std::string> read_file(const std::filesystem::path& path);

}  // namespace patchdb::util
