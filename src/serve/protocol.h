// patchdbd wire protocol: length-prefixed binary frames over a stream
// socket. Every frame is
//
//   u32  body_length   (little-endian, 1 .. kMaxFrameBytes)
//   body
//
// A request body is `u8 opcode` + opcode-specific payload; a response
// body is `u8 status` + payload (an error payload is one string with
// the failure message). Integers are fixed-width little-endian, floats
// travel as their IEEE-754 bit patterns (f32 in u32, f64 in u64), and
// strings are `u32 length` + raw bytes — no terminator, no text
// escaping, so a patch file with any byte content round-trips.
//
// Each payload's layout is written once, in protocol.cpp, as a list of
// typed fields (u32, u64, i64, f32, f64, string, bool, enum, counted
// list); the encoder and the decoder run the same list, and one switch
// picks the payload for an op. A new op is one field list and one case
// of that switch (and of op_name); a new status widens the status
// field's range. The decoder accepts only what the encoder can write: a
// bool byte is 0 or 1, an enum byte lies in its field's range, a list's
// count fits in the bytes that arrived, and no byte trails.
//
// The protocol is deliberately dumb: no compression, no multiplexing,
// one outstanding request per connection. Requests on one connection
// are served strictly in order; concurrency comes from opening more
// connections (the daemon serves each connection on its own thread).
// Malformed frames — oversized length, short payload, unknown opcode, a
// bool or enum byte out of range, trailing bytes — are answered with
// kBadRequest where a response is still possible and the connection is
// closed; a client that lies about lengths can never hold a thread for
// more than the server's read timeout.
//
// A peer that simply hangs up mid-frame (EOF after part of a header or
// before a declared body finished arriving) is NOT malformed: the
// server records it under `serve.disconnects_midframe` and closes
// quietly, so slow-socket disconnects never masquerade as corruption
// in `serve.protocol_errors`. Genuine recv() failures count as
// `serve.socket_errors`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace patchdb::serve {

/// Protocol revision, echoed by Ping so clients can detect skew.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard cap on a frame body. Large enough for any realistic patch or
/// analyze report, small enough that a hostile length prefix cannot
/// make the server allocate gigabytes.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Bytes of the frame header (the u32 body length).
inline constexpr std::size_t kFrameHeaderBytes = 4;

enum class Op : std::uint8_t {
  kPing = 1,      // liveness + version + dataset shape
  kLookup = 2,    // patch by commit id -> metadata + patch text
  kFeatures = 3,  // feature vector by commit id
  kNearest = 4,   // k nearest patches to an id or a submitted vector
  kStats = 5,     // Table V category composition of the dataset
  kAnalyze = 6,   // run the security checkers on a submitted diff
  kListIds = 7,   // enumerate patch ids (for clients and load drivers)
};

enum class Status : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,   // malformed payload or semantically invalid input
  kNotFound = 2,     // unknown patch id
  kServerError = 3,  // request raised an unexpected exception
  kBusy = 4,         // daemon is at max_connections; retry later
};

std::string_view op_name(Op op) noexcept;
std::string_view status_name(Status status) noexcept;

/// Thrown by decoders on any malformed frame or payload.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

// ----------------------------------------------------------- wire IO --

/// Appends wire-encoded values to an owned buffer.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f32(float v);
  void f64(double v);
  void str(std::string_view v);

  const std::string& buffer() const noexcept { return buffer_; }
  std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked reads over a received body; every overrun throws
/// ProtocolError. finish() rejects trailing bytes so a payload must be
/// exactly its declared shape.
class WireReader {
 public:
  explicit WireReader(std::string_view body) : body_(body) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  float f32();
  double f64();
  std::string str();

  std::size_t remaining() const noexcept { return body_.size() - pos_; }
  /// Throws when undecoded bytes remain.
  void finish(std::string_view what);

 private:
  std::span<const unsigned char> take(std::size_t n, const char* what);

  std::string_view body_;
  std::size_t pos_ = 0;
};

/// Prefix `body` with its u32 length. Throws ProtocolError when the
/// body is empty or exceeds kMaxFrameBytes.
std::string frame(std::string_view body);

/// Parse a frame header; returns the body length. Throws ProtocolError
/// on a zero length or one past kMaxFrameBytes (the oversized body is
/// never read, let alone allocated).
std::size_t parse_frame_header(std::span<const unsigned char> header);

// ----------------------------------------------------- request types --

/// Which feature space a Features request wants (mirrors
/// feature::FeatureSpace; pinned u8 values are the wire contract).
enum class WireFeatureSpace : std::uint8_t {
  kSyntactic = 0,
  kSemantic = 1,
  kInterproc = 2,
};

/// Dataset component selector for ListIds (0 = every component).
enum class WireComponent : std::uint8_t {
  kAll = 0,
  kNvd = 1,
  kWild = 2,
  kNonsecurity = 3,
  kSynthetic = 4,
};

struct PingRequest {
  friend bool operator==(const PingRequest&, const PingRequest&) = default;
};

struct LookupRequest {
  std::string id;
  friend bool operator==(const LookupRequest&, const LookupRequest&) = default;
};

struct FeaturesRequest {
  std::string id;
  WireFeatureSpace space = WireFeatureSpace::kSyntactic;
  friend bool operator==(const FeaturesRequest&, const FeaturesRequest&) = default;
};

struct NearestRequest {
  /// Query by id (vector ignored) or by raw 60-dim feature vector
  /// (id empty). by_id disambiguates an empty id from a present one.
  bool by_id = true;
  std::string id;
  std::vector<double> vector;
  std::uint32_t k = 5;
  friend bool operator==(const NearestRequest&, const NearestRequest&) = default;
};

struct StatsRequest {
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

struct AnalyzeRequest {
  std::string diff_text;
  bool interproc = false;
  friend bool operator==(const AnalyzeRequest&, const AnalyzeRequest&) = default;
};

struct ListIdsRequest {
  WireComponent component = WireComponent::kAll;
  std::uint32_t limit = 0;  // 0 = no limit
  friend bool operator==(const ListIdsRequest&, const ListIdsRequest&) = default;
};

/// A decoded request: exactly one op, payload in the matching member.
struct Request {
  Op op = Op::kPing;
  PingRequest ping;
  LookupRequest lookup;
  FeaturesRequest features;
  NearestRequest nearest;
  StatsRequest stats;
  AnalyzeRequest analyze;
  ListIdsRequest list_ids;
};

/// Encode a request as a frame body (opcode + payload, no length
/// prefix — pass through frame() before writing to a socket).
std::string encode_request(const Request& request);

/// Decode a request body. Throws ProtocolError on unknown opcode,
/// short payload, or trailing bytes.
Request decode_request(std::string_view body);

// ---------------------------------------------------- response types --

struct PingResponse {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint64_t patches = 0;  // every component
  friend bool operator==(const PingResponse&, const PingResponse&) = default;
};

struct LookupResponse {
  WireComponent component = WireComponent::kNvd;
  bool is_security = false;
  std::int64_t type = 0;  // corpus::PatchType numeric value
  std::string repo;       // natural patches; empty for synthetic
  std::string origin;     // synthetic patches; empty for natural
  std::string patch_text; // full unified diff, byte-exact
  friend bool operator==(const LookupResponse&, const LookupResponse&) = default;
};

struct FeaturesResponse {
  std::vector<double> vector;
  friend bool operator==(const FeaturesResponse&, const FeaturesResponse&) = default;
};

struct NearestHit {
  std::string id;
  float distance = 0.0f;  // core::l2_cell output, bit-exact
  friend bool operator==(const NearestHit&, const NearestHit&) = default;
};

struct NearestResponse {
  std::vector<NearestHit> hits;  // ascending (distance, corpus index)
  friend bool operator==(const NearestResponse&, const NearestResponse&) = default;
};

/// One Table V row of the served dataset's composition.
struct CategoryCount {
  std::int64_t type = 0;      // 1..12
  std::uint64_t labeled = 0;    // ground-truth count
  std::uint64_t predicted = 0;  // categorizer count
  friend bool operator==(const CategoryCount&, const CategoryCount&) = default;
};

struct StatsResponse {
  std::uint64_t nvd = 0;
  std::uint64_t wild = 0;
  std::uint64_t nonsecurity = 0;
  std::uint64_t synthetic = 0;
  std::uint64_t security_total = 0;  // labeled security patches scanned
  std::uint64_t agreement = 0;       // categorizer == label
  std::vector<CategoryCount> categories;  // 12 rows, Table V order
  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

struct AnalyzeResponse {
  std::int64_t category = 0;  // core::categorize of the submitted diff
  std::uint64_t resolved = 0;
  std::uint64_t introduced = 0;
  std::string report;  // analysis::render_report text
  friend bool operator==(const AnalyzeResponse&, const AnalyzeResponse&) = default;
};

struct ListIdsResponse {
  std::vector<std::string> ids;
  friend bool operator==(const ListIdsResponse&, const ListIdsResponse&) = default;
};

/// A decoded response. On any status but kOk only `error` is
/// meaningful; on kOk the member matching the request's op is set.
struct Response {
  Status status = Status::kOk;
  std::string error;

  PingResponse ping;
  LookupResponse lookup;
  FeaturesResponse features;
  NearestResponse nearest;
  StatsResponse stats;
  AnalyzeResponse analyze;
  ListIdsResponse list_ids;
};

/// Encode a response body for `op` (status + payload; the op is not on
/// the wire — a connection has one outstanding request, so the client
/// knows which decoder to run).
std::string encode_response(Op op, const Response& response);

/// Decode a response body for a request of type `op`.
Response decode_response(Op op, std::string_view body);

/// Shorthand for building an error response.
Response error_response(Status status, std::string message);

}  // namespace patchdb::serve
