#include "corpus/codegen.h"

#include <array>

namespace patchdb::corpus {

namespace {

constexpr std::array<std::string_view, 24> kVerbs = {
    "parse", "read", "write", "handle", "process", "decode", "encode",
    "init", "update", "flush", "copy", "scan", "load", "store", "emit",
    "check", "validate", "fetch", "push", "pop", "send", "recv", "map",
    "free",
};

constexpr std::array<std::string_view, 24> kNouns = {
    "header", "packet", "frame", "buffer", "chunk", "record", "entry",
    "block", "node", "table", "index", "state", "session", "token",
    "message", "segment", "page", "cache", "queue", "stream", "field",
    "option", "digest", "attr",
};

constexpr std::array<std::string_view, 12> kBufNames = {
    "buf", "data", "tmp_buf", "out", "scratch", "name", "line", "payload",
    "key", "path", "label", "work",
};

constexpr std::array<std::string_view, 10> kPtrNames = {
    "ctx", "state", "req", "conn", "sess", "obj", "hdr", "info", "cfg", "dev",
};

constexpr std::array<std::string_view, 8> kIdxNames = {
    "i", "j", "k", "pos", "off", "cursor", "n", "slot",
};

constexpr std::array<std::string_view, 8> kLenNames = {
    "len", "size", "count", "nbytes", "avail", "total", "limit", "cap",
};

constexpr std::array<std::string_view, 10> kValNames = {
    "val", "ret", "sum", "flags", "status", "code", "left", "bits", "mask",
    "depth",
};

constexpr std::array<std::string_view, 10> kFieldNames = {
    "length", "type", "offset", "version", "seq", "refcnt", "nitems",
    "width", "level", "mode",
};

std::string pick_sv(util::Rng& rng, std::span<const std::string_view> pool) {
  return std::string(pool[rng.index(pool.size())]);
}

}  // namespace

FunctionContext draw_context(util::Rng& rng) {
  FunctionContext ctx;
  ctx.func_name = pick_sv(rng, kVerbs) + "_" + pick_sv(rng, kNouns);
  ctx.buf = pick_sv(rng, kBufNames);
  ctx.ptr = pick_sv(rng, kPtrNames);
  ctx.idx = pick_sv(rng, kIdxNames);
  ctx.len = pick_sv(rng, kLenNames);
  ctx.val = pick_sv(rng, kValNames);
  // tmp must differ from val to avoid shadowing in generated code.
  do {
    ctx.tmp = pick_sv(rng, kValNames);
  } while (ctx.tmp == ctx.val);
  ctx.callee1 = pick_sv(rng, kVerbs) + "_" + pick_sv(rng, kNouns);
  ctx.callee2 = pick_sv(rng, kVerbs) + "_" + pick_sv(rng, kNouns);
  ctx.field = pick_sv(rng, kFieldNames);
  ctx.buf_size = static_cast<int>(16 << rng.index(4));  // 16..128
  return ctx;
}

std::vector<std::string> filler_statements(util::Rng& rng, const FunctionContext& ctx,
                                           std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.index(8)) {
      case 0:
        out.push_back(ctx.val + " = " + ctx.ptr + "->" + ctx.field + ";");
        break;
      case 1:
        out.push_back(ctx.tmp + " += " + ctx.val + " & 0x" +
                      std::to_string(1 + rng.index(9)) + "f;");
        break;
      case 2:
        out.push_back(ctx.callee1 + "(" + ctx.ptr + ", " + ctx.idx + ");");
        break;
      case 3:
        out.push_back("if (" + ctx.val + " != 0)");
        out.push_back("    " + ctx.tmp + " = " + ctx.val + " >> 2;");
        break;
      case 4:
        out.push_back("for (" + ctx.idx + " = 0; " + ctx.idx + " < " + ctx.len +
                      "; " + ctx.idx + "++)");
        out.push_back("    " + ctx.tmp + " ^= " + ctx.buf + "[" + ctx.idx + "];");
        break;
      case 5:
        out.push_back(ctx.buf + "[0] = (char)" + ctx.val + ";");
        break;
      case 6:
        out.push_back(ctx.ptr + "->" + ctx.field + " = " + ctx.tmp + ";");
        break;
      default:
        out.push_back(ctx.tmp + " = " + ctx.callee2 + "(" + ctx.ptr + ");");
        break;
    }
  }
  return out;
}

std::vector<std::string> make_function(
    const FunctionContext& ctx,
    std::initializer_list<std::span<const std::string>> body_parts) {
  std::size_t body_size = 0;
  for (const auto part : body_parts) body_size += part.size();
  std::vector<std::string> out;
  out.reserve(body_size + 9);
  out.push_back("static int " + ctx.func_name + "(struct " + ctx.ptr +
                "_state *" + ctx.ptr + ", size_t " + ctx.len + ")");
  out.push_back("{");
  out.push_back("    char " + ctx.buf + "[" + std::to_string(ctx.buf_size) + "];");
  out.push_back("    size_t " + ctx.idx + " = 0;");
  out.push_back("    int " + ctx.val + " = 0;");
  out.push_back("    int " + ctx.tmp + " = 0;");
  out.push_back("");
  for (const auto part : body_parts) {
    for (const std::string& line : part) {
      out.push_back(line.empty() ? line : "    " + line);
    }
  }
  out.push_back("    return " + ctx.val + ";");
  out.push_back("}");
  return out;
}

std::vector<std::string_view> make_file(
    util::Rng& rng, std::span<const std::span<const std::string>> functions) {
  static constexpr std::array<std::string_view, 8> kRetries = {
      "#define MAX_RETRIES 1", "#define MAX_RETRIES 2", "#define MAX_RETRIES 3",
      "#define MAX_RETRIES 4", "#define MAX_RETRIES 5", "#define MAX_RETRIES 6",
      "#define MAX_RETRIES 7", "#define MAX_RETRIES 8",
  };
  std::size_t size = 7;
  for (const auto fn : functions) size += fn.size() + 1;
  std::vector<std::string_view> out;
  out.reserve(size);
  out.push_back("#include <stdio.h>");
  out.push_back("#include <stdlib.h>");
  out.push_back("#include <string.h>");
  if (rng.chance(0.5)) out.push_back("#include \"internal.h\"");
  out.push_back("");
  if (rng.chance(0.4)) {
    out.push_back(kRetries[rng.index(kRetries.size())]);
    out.push_back("");
  }
  for (const auto fn : functions) {
    out.insert(out.end(), fn.begin(), fn.end());
    out.push_back("");
  }
  if (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

std::string draw_repo_name(util::Rng& rng) {
  return "lib" + std::string(kNouns[rng.index(kNouns.size())]) +
         std::to_string(rng.index(100));
}

std::string draw_file_name(util::Rng& rng) {
  return "src/" + std::string(kVerbs[rng.index(kVerbs.size())]) + "_" +
         std::string(kNouns[rng.index(kNouns.size())]) + ".c";
}

}  // namespace patchdb::corpus
