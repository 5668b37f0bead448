#include "serve/protocol.h"

#include <bit>
#include <concepts>
#include <type_traits>

namespace patchdb::serve {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ProtocolError(what); }

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
    case Status::kBusy: return "busy";
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

// ------------------------------------------------------ field lists --
//
// Each payload's wire layout is written once, as `fields(io, message)`
// over the primitives below. Encode runs a field list over a writer
// (the message is const) and Decode over a reader (the message is
// filled in), so the two directions cannot drift apart.

namespace {

/// Appends each field to the frame body.
struct Encode : WireWriter {
  void flag(bool v, const char*) { u8(v ? 1 : 0); }
  template <class E>
  void choice(E v, E, E, const char*) { u8(static_cast<std::uint8_t>(v)); }
  template <class T>
  void list(const std::vector<T>& items, const char*) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) fields(*this, item);
  }
};

/// Reads each field from a received body, rejecting what Encode cannot
/// have written.
struct Decode {
  WireReader r;

  void u32(std::uint32_t& v) { v = r.u32(); }
  void u64(std::uint64_t& v) { v = r.u64(); }
  void i64(std::int64_t& v) { v = r.i64(); }
  void f32(float& v) { v = r.f32(); }
  void f64(double& v) { v = r.f64(); }
  void str(std::string& v) { v = r.str(); }
  /// A bool is the byte 0 or 1.
  void flag(bool& v, const char* what) {
    const std::uint8_t byte = r.u8();
    if (byte > 1) fail(std::string("protocol: ") + what + " must be 0 or 1");
    v = byte == 1;
  }
  /// An enum is one byte in [lo, hi].
  template <class E>
  void choice(E& v, E lo, E hi, const char* what) {
    const std::uint8_t byte = r.u8();
    if (byte < static_cast<std::uint8_t>(lo) || byte > static_cast<std::uint8_t>(hi)) {
      fail(std::string("protocol: unknown ") + what + " " + std::to_string(byte));
    }
    v = static_cast<E>(byte);
  }
  /// A list is a u32 count and its elements. A hostile count must not
  /// drive a huge allocation: the elements have to fit in the bytes that
  /// arrived, each taking at least the bytes of an empty one (numbers at
  /// full width, strings and lists as their u32 count).
  template <class T>
  void list(std::vector<T>& items, const char* what) {
    static const std::size_t min_bytes = [] {
      Encode io;
      const T empty{};
      fields(io, empty);
      return io.buffer().size();
    }();
    const std::uint32_t n = r.u32();
    if (static_cast<std::size_t>(n) * min_bytes > r.remaining()) {
      fail(std::string("protocol: ") + what + " count exceeds payload");
    }
    items.resize(n);
    for (T& item : items) fields(*this, item);
  }
};

/// `M` is `T`, or `const T` when encoding. The list primitives above
/// find the element overloads below by argument-dependent lookup on the
/// IO type, when they are instantiated.
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

void fields(auto& io, Of<double> auto& v) { io.f64(v); }
void fields(auto& io, Of<std::string> auto& v) { io.str(v); }

void fields(auto&, Of<PingRequest> auto&) {}
void fields(auto& io, Of<LookupRequest> auto& m) { io.str(m.id); }
void fields(auto& io, Of<FeaturesRequest> auto& m) {
  io.str(m.id);
  io.choice(m.space, WireFeatureSpace::kSyntactic, WireFeatureSpace::kInterproc,
            "feature space");
}
void fields(auto& io, Of<NearestRequest> auto& m) {
  io.flag(m.by_id, "nearest by_id");
  if (m.by_id) {
    io.str(m.id);
  } else {
    io.list(m.vector, "nearest vector");
  }
  io.u32(m.k);
}
void fields(auto&, Of<StatsRequest> auto&) {}
void fields(auto& io, Of<AnalyzeRequest> auto& m) {
  io.str(m.diff_text);
  io.flag(m.interproc, "analyze interproc");
}
void fields(auto& io, Of<ListIdsRequest> auto& m) {
  io.choice(m.component, WireComponent::kAll, WireComponent::kSynthetic,
            "component");
  io.u32(m.limit);
}

void fields(auto& io, Of<PingResponse> auto& m) {
  io.u32(m.protocol_version);
  io.u64(m.patches);
}
void fields(auto& io, Of<LookupResponse> auto& m) {
  io.choice(m.component, WireComponent::kNvd, WireComponent::kSynthetic,
            "lookup component");
  io.flag(m.is_security, "lookup is_security");
  io.i64(m.type);
  io.str(m.repo);
  io.str(m.origin);
  io.str(m.patch_text);
}
void fields(auto& io, Of<FeaturesResponse> auto& m) {
  io.list(m.vector, "features vector");
}
void fields(auto& io, Of<NearestHit> auto& m) {
  io.str(m.id);
  io.f32(m.distance);
}
void fields(auto& io, Of<NearestResponse> auto& m) {
  io.list(m.hits, "nearest hits");
}
void fields(auto& io, Of<CategoryCount> auto& m) {
  io.i64(m.type);
  io.u64(m.labeled);
  io.u64(m.predicted);
}
void fields(auto& io, Of<StatsResponse> auto& m) {
  io.u64(m.nvd);
  io.u64(m.wild);
  io.u64(m.nonsecurity);
  io.u64(m.synthetic);
  io.u64(m.security_total);
  io.u64(m.agreement);
  io.list(m.categories, "stats categories");
}
void fields(auto& io, Of<AnalyzeResponse> auto& m) {
  io.i64(m.category);
  io.u64(m.resolved);
  io.u64(m.introduced);
  io.str(m.report);
}
void fields(auto& io, Of<ListIdsResponse> auto& m) {
  io.list(m.ids, "id list");
}

/// The one switch: the payload an op carries. Request and Response name
/// their payload members alike, so it serves both.
void with_payload(Op op, auto& message, auto&& visit) {
  switch (op) {
    case Op::kPing: return visit(message.ping);
    case Op::kLookup: return visit(message.lookup);
    case Op::kFeatures: return visit(message.features);
    case Op::kNearest: return visit(message.nearest);
    case Op::kStats: return visit(message.stats);
    case Op::kAnalyze: return visit(message.analyze);
    case Op::kListIds: return visit(message.list_ids);
  }
}

/// A request is its opcode and that op's payload.
void fields(auto& io, Of<Request> auto& m) {
  io.choice(m.op, Op::kPing, Op::kListIds, "opcode");
  with_payload(m.op, m, [&](auto& payload) { fields(io, payload); });
}

/// A response is its status, then the error text or the op's payload.
void fields(auto& io, Op op, Of<Response> auto& m) {
  io.choice(m.status, Status::kOk, Status::kBusy, "status");
  if (m.status != Status::kOk) return io.str(m.error);
  with_payload(op, m, [&](auto& payload) { fields(io, payload); });
}

}  // namespace

std::string encode_request(const Request& request) {
  Encode io;
  fields(io, request);
  return io.take();
}

Request decode_request(std::string_view body) {
  Decode io{WireReader(body)};
  Request request;
  fields(io, request);
  io.r.finish(std::string(op_name(request.op)) + " request");
  return request;
}

std::string encode_response(Op op, const Response& response) {
  Encode io;
  fields(io, op, response);
  return io.take();
}

Response decode_response(Op op, std::string_view body) {
  Decode io{WireReader(body)};
  Response response;
  fields(io, op, response);
  io.r.finish(std::string(op_name(op)) + " response");
  return response;
}

Response error_response(Status status, std::string message) {
  Response response;
  response.status = status;
  response.error = std::move(message);
  return response;
}

}  // namespace patchdb::serve
