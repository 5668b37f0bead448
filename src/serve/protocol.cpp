#include "serve/protocol.h"

#include <bit>
#include <cstring>

namespace patchdb::serve {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ProtocolError(what); }

void check_vector_len(std::uint32_t n, std::size_t elem_bytes,
                      std::size_t remaining, const char* what) {
  // A hostile count must not drive a huge allocation: the elements have
  // to actually fit in the bytes that arrived.
  if (static_cast<std::size_t>(n) * elem_bytes > remaining) {
    fail(std::string("protocol: ") + what + " count exceeds payload");
  }
}

/// A wire bool: 0 or 1, anything else malformed.
bool read_bool(WireReader& r, const char* what) {
  const std::uint8_t byte = r.u8();
  if (byte > 1) fail(std::string("protocol: ") + what + " must be 0 or 1");
  return byte == 1;
}

}  // namespace

std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kLookup: return "lookup";
    case Op::kFeatures: return "features";
    case Op::kNearest: return "nearest";
    case Op::kStats: return "stats";
    case Op::kAnalyze: return "analyze";
    case Op::kListIds: return "list_ids";
  }
  return "unknown";
}

std::string_view status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadRequest: return "bad_request";
    case Status::kNotFound: return "not_found";
    case Status::kServerError: return "server_error";
    case Status::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

// ----------------------------------------------------------- wire IO --

void WireWriter::u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void WireWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(std::string_view v) {
  if (v.size() > kMaxFrameBytes) fail("protocol: string exceeds frame cap");
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.append(v);
}

std::span<const unsigned char> WireReader::take(std::size_t n, const char* what) {
  if (body_.size() - pos_ < n) {
    fail(std::string("protocol: truncated payload reading ") + what);
  }
  const auto* data =
      reinterpret_cast<const unsigned char*>(body_.data()) + pos_;
  pos_ += n;
  return {data, n};
}

std::uint8_t WireReader::u8() { return take(1, "u8")[0]; }

std::uint32_t WireReader::u32() {
  const auto bytes = take(4, "u32");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t WireReader::u64() {
  const auto bytes = take(8, "u64");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

std::int64_t WireReader::i64() { return static_cast<std::int64_t>(u64()); }

float WireReader::f32() { return std::bit_cast<float>(u32()); }

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > remaining()) fail("protocol: string length exceeds payload");
  const auto bytes = take(n, "string");
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

void WireReader::finish(std::string_view what) {
  if (remaining() != 0) {
    fail("protocol: " + std::string(what) + " carries " +
         std::to_string(remaining()) + " trailing byte(s)");
  }
}

std::string frame(std::string_view body) {
  if (body.empty()) fail("protocol: empty frame body");
  if (body.size() > kMaxFrameBytes) fail("protocol: frame exceeds size cap");
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  std::string out = w.take();
  out.append(body);
  return out;
}

std::size_t parse_frame_header(std::span<const unsigned char> header) {
  if (header.size() != kFrameHeaderBytes) {
    fail("protocol: short frame header");
  }
  std::uint32_t n = 0;
  for (int i = 3; i >= 0; --i) n = (n << 8) | header[static_cast<std::size_t>(i)];
  if (n == 0) fail("protocol: zero-length frame");
  if (n > kMaxFrameBytes) {
    fail("protocol: frame of " + std::to_string(n) +
         " bytes exceeds the cap of " + std::to_string(kMaxFrameBytes));
  }
  return n;
}

// ----------------------------------------------------------- request --

std::string encode_request(const Request& request) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(request.op));
  switch (request.op) {
    case Op::kPing:
    case Op::kStats:
      break;
    case Op::kLookup:
      w.str(request.lookup.id);
      break;
    case Op::kFeatures:
      w.str(request.features.id);
      w.u8(static_cast<std::uint8_t>(request.features.space));
      break;
    case Op::kNearest:
      w.u8(request.nearest.by_id ? 1 : 0);
      if (request.nearest.by_id) {
        w.str(request.nearest.id);
      } else {
        w.u32(static_cast<std::uint32_t>(request.nearest.vector.size()));
        for (double v : request.nearest.vector) w.f64(v);
      }
      w.u32(request.nearest.k);
      break;
    case Op::kAnalyze:
      w.str(request.analyze.diff_text);
      w.u8(request.analyze.interproc ? 1 : 0);
      break;
    case Op::kListIds:
      w.u8(static_cast<std::uint8_t>(request.list_ids.component));
      w.u32(request.list_ids.limit);
      break;
  }
  return w.take();
}

Request decode_request(std::string_view body) {
  WireReader r(body);
  Request request;
  const std::uint8_t op = r.u8();
  if (op < static_cast<std::uint8_t>(Op::kPing) ||
      op > static_cast<std::uint8_t>(Op::kListIds)) {
    fail("protocol: unknown opcode " + std::to_string(op));
  }
  request.op = static_cast<Op>(op);
  switch (request.op) {
    case Op::kPing:
    case Op::kStats:
      break;
    case Op::kLookup:
      request.lookup.id = r.str();
      break;
    case Op::kFeatures: {
      request.features.id = r.str();
      const std::uint8_t space = r.u8();
      if (space > static_cast<std::uint8_t>(WireFeatureSpace::kInterproc)) {
        fail("protocol: unknown feature space " + std::to_string(space));
      }
      request.features.space = static_cast<WireFeatureSpace>(space);
      break;
    }
    case Op::kNearest: {
      request.nearest.by_id = read_bool(r, "nearest by_id");
      if (request.nearest.by_id) {
        request.nearest.id = r.str();
      } else {
        const std::uint32_t dims = r.u32();
        check_vector_len(dims, 8, r.remaining(), "nearest vector");
        request.nearest.vector.resize(dims);
        for (std::uint32_t j = 0; j < dims; ++j) {
          request.nearest.vector[j] = r.f64();
        }
      }
      request.nearest.k = r.u32();
      break;
    }
    case Op::kAnalyze:
      request.analyze.diff_text = r.str();
      request.analyze.interproc = read_bool(r, "analyze interproc");
      break;
    case Op::kListIds: {
      const std::uint8_t component = r.u8();
      if (component > static_cast<std::uint8_t>(WireComponent::kSynthetic)) {
        fail("protocol: unknown component " + std::to_string(component));
      }
      request.list_ids.component = static_cast<WireComponent>(component);
      request.list_ids.limit = r.u32();
      break;
    }
  }
  r.finish(std::string(op_name(request.op)) + " request");
  return request;
}

// ---------------------------------------------------------- response --

std::string encode_response(Op op, const Response& response) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(response.status));
  if (response.status != Status::kOk) {
    w.str(response.error);
    return w.take();
  }
  switch (op) {
    case Op::kPing:
      w.u32(response.ping.protocol_version);
      w.u64(response.ping.patches);
      break;
    case Op::kLookup:
      w.u8(static_cast<std::uint8_t>(response.lookup.component));
      w.u8(response.lookup.is_security ? 1 : 0);
      w.i64(response.lookup.type);
      w.str(response.lookup.repo);
      w.str(response.lookup.origin);
      w.str(response.lookup.patch_text);
      break;
    case Op::kFeatures:
      w.u32(static_cast<std::uint32_t>(response.features.vector.size()));
      for (double v : response.features.vector) w.f64(v);
      break;
    case Op::kNearest:
      w.u32(static_cast<std::uint32_t>(response.nearest.hits.size()));
      for (const NearestHit& hit : response.nearest.hits) {
        w.str(hit.id);
        w.f32(hit.distance);
      }
      break;
    case Op::kStats:
      w.u64(response.stats.nvd);
      w.u64(response.stats.wild);
      w.u64(response.stats.nonsecurity);
      w.u64(response.stats.synthetic);
      w.u64(response.stats.security_total);
      w.u64(response.stats.agreement);
      w.u32(static_cast<std::uint32_t>(response.stats.categories.size()));
      for (const CategoryCount& c : response.stats.categories) {
        w.i64(c.type);
        w.u64(c.labeled);
        w.u64(c.predicted);
      }
      break;
    case Op::kAnalyze:
      w.i64(response.analyze.category);
      w.u64(response.analyze.resolved);
      w.u64(response.analyze.introduced);
      w.str(response.analyze.report);
      break;
    case Op::kListIds:
      w.u32(static_cast<std::uint32_t>(response.list_ids.ids.size()));
      for (const std::string& id : response.list_ids.ids) w.str(id);
      break;
  }
  return w.take();
}

Response decode_response(Op op, std::string_view body) {
  WireReader r(body);
  Response response;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::kShuttingDown)) {
    fail("protocol: unknown status " + std::to_string(status));
  }
  response.status = static_cast<Status>(status);
  if (response.status != Status::kOk) {
    response.error = r.str();
    r.finish("error response");
    return response;
  }
  switch (op) {
    case Op::kPing:
      response.ping.protocol_version = r.u32();
      response.ping.patches = r.u64();
      break;
    case Op::kLookup: {
      const std::uint8_t component = r.u8();
      if (component == 0 ||
          component > static_cast<std::uint8_t>(WireComponent::kSynthetic)) {
        fail("protocol: bad lookup component " + std::to_string(component));
      }
      response.lookup.component = static_cast<WireComponent>(component);
      response.lookup.is_security = read_bool(r, "lookup is_security");
      response.lookup.type = r.i64();
      response.lookup.repo = r.str();
      response.lookup.origin = r.str();
      response.lookup.patch_text = r.str();
      break;
    }
    case Op::kFeatures: {
      const std::uint32_t dims = r.u32();
      check_vector_len(dims, 8, r.remaining(), "features vector");
      response.features.vector.resize(dims);
      for (std::uint32_t j = 0; j < dims; ++j) {
        response.features.vector[j] = r.f64();
      }
      break;
    }
    case Op::kNearest: {
      const std::uint32_t n = r.u32();
      check_vector_len(n, 4 + 4, r.remaining(), "nearest hits");
      response.nearest.hits.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        response.nearest.hits[i].id = r.str();
        response.nearest.hits[i].distance = r.f32();
      }
      break;
    }
    case Op::kStats: {
      response.stats.nvd = r.u64();
      response.stats.wild = r.u64();
      response.stats.nonsecurity = r.u64();
      response.stats.synthetic = r.u64();
      response.stats.security_total = r.u64();
      response.stats.agreement = r.u64();
      const std::uint32_t n = r.u32();
      check_vector_len(n, 8 + 8 + 8, r.remaining(), "stats categories");
      response.stats.categories.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        response.stats.categories[i].type = r.i64();
        response.stats.categories[i].labeled = r.u64();
        response.stats.categories[i].predicted = r.u64();
      }
      break;
    }
    case Op::kAnalyze:
      response.analyze.category = r.i64();
      response.analyze.resolved = r.u64();
      response.analyze.introduced = r.u64();
      response.analyze.report = r.str();
      break;
    case Op::kListIds: {
      const std::uint32_t n = r.u32();
      check_vector_len(n, 4, r.remaining(), "id list");
      response.list_ids.ids.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) response.list_ids.ids[i] = r.str();
      break;
    }
  }
  r.finish(std::string(op_name(op)) + " response");
  return response;
}

Response error_response(Status status, std::string message) {
  Response response;
  response.status = status;
  response.error = std::move(message);
  return response;
}

}  // namespace patchdb::serve
