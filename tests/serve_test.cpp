// Tests for the serving subsystem (src/serve): wire-protocol round
// trips and malformed-frame rejection, bit-identity of served query
// results against the offline kernels, the concurrent TCP server
// (64 connections across every request type, a thread per connection,
// so idle clients delay no one), load shedding past max_connections, a
// response too large to frame, the per-op span and metric names,
// graceful drain, and the read-only store properties the daemon depends
// on (concurrent loads of one sealed export; refusal of corrupted
// datasets at startup).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "core/categorize.h"
#include "core/distance.h"
#include "core/patchdb.h"
#include "core/query.h"
#include "diff/render.h"
#include "feature/features.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/dataset.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/export.h"
#include "synth/synthesize.h"
#include "util/rng.h"

namespace patchdb {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ protocol --

TEST(ServeProtocol, EveryRequestRoundTrips) {
  serve::Request ping;
  ping.op = serve::Op::kPing;

  serve::Request lookup;
  lookup.op = serve::Op::kLookup;
  lookup.lookup.id = "deadbeef";

  serve::Request features;
  features.op = serve::Op::kFeatures;
  features.features.id = "cafe";
  features.features.space = serve::WireFeatureSpace::kInterproc;

  serve::Request nearest_id;
  nearest_id.op = serve::Op::kNearest;
  nearest_id.nearest.by_id = true;
  nearest_id.nearest.id = "0123";
  nearest_id.nearest.k = 7;

  serve::Request nearest_vec;
  nearest_vec.op = serve::Op::kNearest;
  nearest_vec.nearest.by_id = false;
  nearest_vec.nearest.vector = {1.5, -2.25, 0.0, 1e300};
  nearest_vec.nearest.k = 1;

  serve::Request stats;
  stats.op = serve::Op::kStats;

  serve::Request analyze;
  analyze.op = serve::Op::kAnalyze;
  analyze.analyze.diff_text = "--- a\n+++ b\n\0binary\x7f ok";
  analyze.analyze.interproc = true;

  serve::Request list;
  list.op = serve::Op::kListIds;
  list.list_ids.component = serve::WireComponent::kSynthetic;
  list.list_ids.limit = 9;

  for (const serve::Request& request :
       {ping, lookup, features, nearest_id, nearest_vec, stats, analyze,
        list}) {
    const serve::Request decoded =
        serve::decode_request(serve::encode_request(request));
    EXPECT_EQ(decoded.op, request.op);
    EXPECT_EQ(decoded.lookup, request.lookup);
    EXPECT_EQ(decoded.features, request.features);
    EXPECT_EQ(decoded.nearest, request.nearest);
    EXPECT_EQ(decoded.analyze, request.analyze);
    EXPECT_EQ(decoded.list_ids, request.list_ids);
  }
}

TEST(ServeProtocol, EveryResponseRoundTrips) {
  {
    serve::Response r;
    r.ping.patches = 12345;
    const serve::Response d = serve::decode_response(
        serve::Op::kPing, serve::encode_response(serve::Op::kPing, r));
    EXPECT_EQ(d.status, serve::Status::kOk);
    EXPECT_EQ(d.ping, r.ping);
  }
  {
    serve::Response r;
    r.lookup.component = serve::WireComponent::kWild;
    r.lookup.is_security = true;
    r.lookup.type = -3;
    r.lookup.repo = "openssl";
    r.lookup.patch_text = std::string("raw\0bytes", 9);
    const serve::Response d = serve::decode_response(
        serve::Op::kLookup, serve::encode_response(serve::Op::kLookup, r));
    EXPECT_EQ(d.lookup, r.lookup);
  }
  {
    serve::Response r;
    r.features.vector = {0.0, -1.0, 3.14159, 1e-300};
    const serve::Response d = serve::decode_response(
        serve::Op::kFeatures, serve::encode_response(serve::Op::kFeatures, r));
    EXPECT_EQ(d.features, r.features);
  }
  {
    serve::Response r;
    r.nearest.hits = {{"aa", 0.0f}, {"bb", 1.25f}};
    const serve::Response d = serve::decode_response(
        serve::Op::kNearest, serve::encode_response(serve::Op::kNearest, r));
    EXPECT_EQ(d.nearest, r.nearest);
  }
  {
    serve::Response r;
    r.stats.nvd = 1;
    r.stats.wild = 2;
    r.stats.synthetic = 4;
    r.stats.categories = {{3, 10, 9}, {7, 0, 1}};
    const serve::Response d = serve::decode_response(
        serve::Op::kStats, serve::encode_response(serve::Op::kStats, r));
    EXPECT_EQ(d.stats, r.stats);
  }
  {
    serve::Response r;
    r.analyze.category = 5;
    r.analyze.resolved = 2;
    r.analyze.introduced = 1;
    r.analyze.report = "report text";
    const serve::Response d = serve::decode_response(
        serve::Op::kAnalyze, serve::encode_response(serve::Op::kAnalyze, r));
    EXPECT_EQ(d.analyze, r.analyze);
  }
  {
    serve::Response r;
    r.status = serve::Status::kNotFound;
    r.error = "no such id";
    const serve::Response d = serve::decode_response(
        serve::Op::kListIds, serve::encode_response(serve::Op::kListIds, r));
    EXPECT_EQ(d.status, serve::Status::kNotFound);
    EXPECT_EQ(d.error, "no such id");
  }
}

TEST(ServeProtocol, MalformedFramesAreRejected) {
  // Zero-length and oversized frame headers.
  const unsigned char zero[4] = {0, 0, 0, 0};
  EXPECT_THROW(serve::parse_frame_header(zero), serve::ProtocolError);
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(serve::parse_frame_header(huge), serve::ProtocolError);

  // Empty body, unknown opcode, truncated payload, trailing bytes.
  EXPECT_THROW(serve::decode_request(""), serve::ProtocolError);
  EXPECT_THROW(serve::decode_request(std::string(1, '\x63')),
               serve::ProtocolError);
  serve::Request lookup;
  lookup.op = serve::Op::kLookup;
  lookup.lookup.id = "abcdef";
  const std::string good = serve::encode_request(lookup);
  EXPECT_NO_THROW(serve::decode_request(good));
  EXPECT_THROW(serve::decode_request(good.substr(0, good.size() - 2)),
               serve::ProtocolError);
  EXPECT_THROW(serve::decode_request(good + "x"), serve::ProtocolError);

  // A bool byte past 1: analyze.interproc (the request's last byte) and
  // lookup.is_security (the response's third byte).
  serve::Request analyze;
  analyze.op = serve::Op::kAnalyze;
  analyze.analyze.diff_text = "diff";
  std::string bad_interproc = serve::encode_request(analyze);
  EXPECT_NO_THROW(serve::decode_request(bad_interproc));
  bad_interproc.back() = '\x02';
  EXPECT_THROW(serve::decode_request(bad_interproc), serve::ProtocolError);
  serve::Response found;
  found.lookup.component = serve::WireComponent::kNvd;
  std::string bad_security =
      serve::encode_response(serve::Op::kLookup, found);
  EXPECT_NO_THROW(serve::decode_response(serve::Op::kLookup, bad_security));
  bad_security[2] = '\xff';
  EXPECT_THROW(serve::decode_response(serve::Op::kLookup, bad_security),
               serve::ProtocolError);
}

/// Fails the test unless `decode` rejects its frame for a count past the
/// bytes that arrived (not for truncation or trailing bytes).
void expect_count_rejected(const std::function<void()>& decode) {
  try {
    decode();
    ADD_FAILURE() << "a hostile count decoded";
  } catch (const serve::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("count exceeds payload"),
              std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    // std::bad_alloc, say, from a count that reached an allocation.
    ADD_FAILURE() << "not a ProtocolError: " << e.what();
  }
}

TEST(ServeProtocol, HostileCountsReachTheirBound) {
  // Each counted list claims 2^31 elements where the decoder reads its
  // count, followed by one element's worth of bytes: the count, not the
  // payload's length, must be what is refused, before any allocation.
  constexpr std::uint32_t kHostile = 0x80000000;
  {
    serve::WireWriter w;
    w.u8(static_cast<std::uint8_t>(serve::Op::kNearest));
    w.u8(0);          // by vector
    w.u32(kHostile);  // vector count
    w.u64(0);         // one f64
    w.u32(5);         // k
    const std::string body = w.take();
    expect_count_rejected([&] { serve::decode_request(body); });
  }
  const auto response = [](serve::Op op,
                            const std::function<void(serve::WireWriter&)>& fill) {
    serve::WireWriter w;
    w.u8(static_cast<std::uint8_t>(serve::Status::kOk));
    fill(w);
    const std::string body = w.take();
    expect_count_rejected([&] { serve::decode_response(op, body); });
  };
  response(serve::Op::kFeatures, [&](serve::WireWriter& w) {
    w.u32(kHostile);
    w.u64(0);  // one f64
  });
  response(serve::Op::kNearest, [&](serve::WireWriter& w) {
    w.u32(kHostile);
    w.str("");  // one hit: its id and its f32 distance
    w.u32(0);
  });
  response(serve::Op::kStats, [&](serve::WireWriter& w) {
    for (int i = 0; i < 6; ++i) w.u64(0);  // the six component totals
    w.u32(kHostile);
    w.u64(0);  // one category: type, labeled, predicted
    w.u64(0);
    w.u64(0);
  });
  response(serve::Op::kListIds, [&](serve::WireWriter& w) {
    w.u32(kHostile);
    w.str("");  // one id
  });
}

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

/// One populated instance of every request (both nearest forms).
std::vector<serve::Request> sample_requests() {
  std::vector<serve::Request> out(8);
  out[0].op = serve::Op::kPing;
  out[1].op = serve::Op::kLookup;
  out[1].lookup.id = "beef";
  out[2].op = serve::Op::kFeatures;
  out[2].features = {"cafe", serve::WireFeatureSpace::kSemantic};
  out[3].op = serve::Op::kNearest;
  out[3].nearest.id = "01";
  out[3].nearest.k = 7;
  out[4].op = serve::Op::kNearest;
  out[4].nearest.by_id = false;
  out[4].nearest.vector = {1.5, -2.25};
  out[4].nearest.k = 3;
  out[5].op = serve::Op::kStats;
  out[6].op = serve::Op::kAnalyze;
  out[6].analyze = {"diff\n", true};
  out[7].op = serve::Op::kListIds;
  out[7].list_ids = {serve::WireComponent::kWild, 9};
  return out;
}

/// One populated instance of every response, indexed by op - 1, then
/// one error response (answering a lookup).
std::vector<std::pair<serve::Op, serve::Response>> sample_responses() {
  std::vector<std::pair<serve::Op, serve::Response>> out;
  serve::Response r;
  r.ping.patches = 12345;
  out.emplace_back(serve::Op::kPing, r);
  r = {};
  r.lookup = {serve::WireComponent::kSynthetic, true, -3, "ssl", "o", "p\n"};
  out.emplace_back(serve::Op::kLookup, r);
  r = {};
  r.features.vector = {0.5, -1.0};
  out.emplace_back(serve::Op::kFeatures, r);
  r = {};
  r.nearest.hits = {{"aa", 0.0f}, {"b", 1.25f}};
  out.emplace_back(serve::Op::kNearest, r);
  r = {};
  r.stats = {1, 2, 3, 4, 5, 6, {{3, 10, 9}}};
  out.emplace_back(serve::Op::kStats, r);
  r = {};
  r.analyze = {5, 2, 1, "r"};
  out.emplace_back(serve::Op::kAnalyze, r);
  r = {};
  r.list_ids.ids = {"x", "yz"};
  out.emplace_back(serve::Op::kListIds, r);
  out.emplace_back(serve::Op::kLookup,
                   serve::error_response(serve::Status::kNotFound, "no id"));
  return out;
}

TEST(ServeProtocol, WireBytesPinned) {
  // The exact bytes of protocol version 1. A change to any payload's
  // layout breaks every client in the field, so it must show here.
  const std::vector<std::string> requests = {
      "01",
      "020400000062656566",
      "03040000006361666501",
      "0401020000003031" "07000000",
      "0400" "02000000" "000000000000f83f" "00000000000002c0" "03000000",
      "05",
      "0605000000646966660a01",
      "070209000000",
  };
  const std::vector<std::string> responses = {
      "00" "01000000" "3930000000000000",
      "000401" "fdffffffffffffff" "0300000073736c" "010000006f" "02000000700a",
      "00" "02000000" "000000000000e03f" "000000000000f0bf",
      "00" "02000000" "020000006161" "00000000" "0100000062" "0000a03f",
      "00" "0100000000000000" "0200000000000000" "0300000000000000"
      "0400000000000000" "0500000000000000" "0600000000000000"
      "01000000" "0300000000000000" "0a00000000000000" "0900000000000000",
      "00" "0500000000000000" "0200000000000000" "0100000000000000"
      "0100000072",
      "00" "02000000" "0100000078" "02000000797a",
      "02" "050000006e6f206964",
  };
  const std::vector<serve::Request> sample = sample_requests();
  ASSERT_EQ(sample.size(), requests.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::string body = serve::encode_request(sample[i]);
    EXPECT_EQ(hex(body), requests[i]) << serve::op_name(sample[i].op);
    EXPECT_EQ(serve::encode_request(serve::decode_request(body)), body);
  }
  const auto answers = sample_responses();
  ASSERT_EQ(answers.size(), responses.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto& [op, response] = answers[i];
    const std::string body = serve::encode_response(op, response);
    EXPECT_EQ(hex(body), responses[i]) << serve::op_name(op);
    EXPECT_EQ(serve::encode_response(op, serve::decode_response(op, body)), body);
  }
  EXPECT_EQ(serve::kProtocolVersion, 1u);
}

/// xorshift64* (Vigna 2016): a small, fast fuzzing RNG.
struct XorShift64Star {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 2685821657736338717ULL;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// Flip a bit, overwrite a byte, cut a range or insert random bytes:
/// one to three such edits of a valid frame body.
std::string mutate_frame(std::string body, XorShift64Star& rng) {
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.below(body.size() + 1);
    switch (rng.below(4)) {
      case 0:
        if (at < body.size()) body[at] = static_cast<char>(body[at] ^ (1 << rng.below(8)));
        break;
      case 1:
        if (at < body.size()) body[at] = static_cast<char>(rng.next());
        break;
      case 2:
        body.erase(at, 1 + rng.below(4));
        break;
      default:
        for (std::size_t n = 1 + rng.below(4); n > 0; --n) {
          body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(rng.next()));
        }
        break;
    }
  }
  return body;
}

TEST(ServeProtocol, MutatedFramesAreRejectedOrCanonical) {
  // The reader accepts nothing the writer cannot emit: a mutated frame
  // either throws ProtocolError (and nothing else) or decodes to a
  // message that encodes back to exactly its bytes.
  constexpr int kMutationsPerMessage = 4000;
  XorShift64Star rng{0x9e3779b97f4a7c15ULL};
  std::size_t accepted = 0;
  for (const serve::Request& request : sample_requests()) {
    const std::string valid = serve::encode_request(request);
    for (int i = 0; i < kMutationsPerMessage; ++i) {
      const std::string body = mutate_frame(valid, rng);
      serve::Request decoded;
      try {
        decoded = serve::decode_request(body);
      } catch (const serve::ProtocolError&) {
        continue;
      }
      ++accepted;
      ASSERT_EQ(hex(serve::encode_request(decoded)), hex(body))
          << "from " << hex(valid);
    }
  }
  for (const auto& [op, response] : sample_responses()) {
    const std::string valid = serve::encode_response(op, response);
    for (int i = 0; i < kMutationsPerMessage; ++i) {
      const std::string body = mutate_frame(valid, rng);
      serve::Response decoded;
      try {
        decoded = serve::decode_response(op, body);
      } catch (const serve::ProtocolError&) {
        continue;
      }
      ++accepted;
      ASSERT_EQ(hex(serve::encode_response(op, decoded)), hex(body))
          << serve::op_name(op) << " from " << hex(valid);
    }
  }
  // Flipped number bytes stay valid, so a good share is accepted: the
  // canonical check above is not vacuous.
  EXPECT_GT(accepted, std::size_t{1000});
}

// ----------------------------------------------------- shared dataset --

/// One small PatchDb shared by the dataset/server tests (building the
/// world dominates test time, so do it once).
const core::PatchDb& shared_db() {
  static const core::PatchDb db = [] {
    core::BuildOptions options;
    options.world.repos = 4;
    options.world.nvd_security = 25;
    options.world.wild_pool = 400;
    options.world.seed = 907;
    options.augment.max_rounds = 1;
    options.synthesis.max_per_patch = 2;
    return core::build_patchdb(options);
  }();
  return db;
}

serve::ServedDataset make_dataset() {
  const core::PatchDb& db = shared_db();
  return serve::ServedDataset::from_components(
      db.nvd_security, db.wild_security, db.nonsecurity, db.synthetic);
}

/// The natural patches in served order (the nearest-query corpus).
std::vector<const diff::Patch*> natural_patches() {
  const core::PatchDb& db = shared_db();
  std::vector<const diff::Patch*> out;
  for (const corpus::CommitRecord& r : db.nvd_security) out.push_back(&r.patch);
  for (const corpus::CommitRecord& r : db.wild_security) out.push_back(&r.patch);
  for (const corpus::CommitRecord& r : db.nonsecurity) out.push_back(&r.patch);
  return out;
}

// -------------------------------------------------------- bit identity --

TEST(ServeDataset, NearestIsBitIdenticalToOfflineKernels) {
  const serve::ServedDataset dataset = make_dataset();
  const std::vector<const diff::Patch*> natural = natural_patches();

  // The offline path: Table I features, max-abs weights over the corpus
  // union with itself, scaled rows, and l2_cell per pair.
  const feature::FeatureMatrix m = feature::extract_all(natural);
  const std::vector<double> weights = core::maxabs_weights(m, m);
  const std::vector<float> scaled = core::scale_features(m, weights);
  const std::size_t dims = m.cols();
  ASSERT_EQ(dataset.weights(), weights);

  for (const std::size_t row : {std::size_t{0}, natural.size() / 2}) {
    serve::NearestRequest request;
    request.by_id = true;
    request.id = natural[row]->commit;
    request.k = 5;
    const serve::Response response = dataset.nearest(request);
    ASSERT_EQ(response.status, serve::Status::kOk);
    ASSERT_EQ(response.nearest.hits.size(), std::size_t{5});

    // Brute-force reference: every distance through the same kernel,
    // ties broken toward the lower corpus index.
    std::vector<std::pair<float, std::size_t>> all;
    for (std::size_t r = 0; r < natural.size(); ++r) {
      all.emplace_back(core::l2_cell(scaled.data() + row * dims,
                                     scaled.data() + r * dims, dims),
                       r);
    }
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < response.nearest.hits.size(); ++i) {
      EXPECT_EQ(response.nearest.hits[i].id, natural[all[i].second]->commit);
      // Bit-exact float equality, not near-equality: the served path
      // must run the same kernel over the same scaled rows.
      EXPECT_EQ(response.nearest.hits[i].distance, all[i].first);
    }
  }
}

TEST(KnnQuery, BlockedScanMatchesScalarCellsAtBlockEdges) {
  // Corpus sizes around the kernel's 64-row blocks, with every third
  // row a copy of an earlier one so exact distance ties occur: the
  // blocked scan must return the brute-force scalar top-k, ties to the
  // lower index, including k larger than the corpus.
  util::Rng rng(77);
  const std::size_t dims = feature::kFeatureCount;
  for (const std::size_t rows : {1UL, 63UL, 64UL, 65UL, 130UL}) {
    std::vector<float> scaled(rows * dims);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < dims; ++j) {
        scaled[r * dims + j] =
            r % 3 == 2 ? scaled[(r / 2) * dims + j]
                       : static_cast<float>(rng.uniform(-2, 2));
      }
    }
    const core::PackedCorpus corpus = core::pack_corpus(scaled, dims);
    std::vector<float> query(scaled.begin(), scaled.begin() + dims);
    for (const std::size_t k : {1UL, 5UL, 200UL}) {
      const std::vector<core::KnnHit> hits = core::knn_query(corpus, query, k);
      std::vector<std::pair<float, std::size_t>> all;
      for (std::size_t r = 0; r < rows; ++r) {
        all.emplace_back(
            core::l2_cell(query.data(), scaled.data() + r * dims, dims), r);
      }
      std::sort(all.begin(), all.end());
      ASSERT_EQ(hits.size(), std::min(k, rows)) << "rows=" << rows;
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].index, all[i].second) << "rows=" << rows;
        EXPECT_EQ(hits[i].distance, all[i].first) << "rows=" << rows;
      }
    }
  }
}

TEST(ServeDataset, FeatureVectorsMatchOfflineExtractor) {
  const serve::ServedDataset dataset = make_dataset();
  const core::PatchDb& db = shared_db();

  // One natural id (its syntactic row is precomputed at load) and one
  // synthetic id (featurized on demand), in every feature space: the
  // served vector must equal the offline dispatch bit for bit.
  const struct {
    serve::WireFeatureSpace wire;
    feature::FeatureSpace space;
  } spaces[] = {
      {serve::WireFeatureSpace::kSyntactic, feature::FeatureSpace::kSyntactic},
      {serve::WireFeatureSpace::kSemantic, feature::FeatureSpace::kSemantic},
      {serve::WireFeatureSpace::kInterproc, feature::FeatureSpace::kInterproc},
  };
  for (const diff::Patch* patch :
       {&db.wild_security.front().patch, &db.synthetic.front().patch}) {
    for (const auto& s : spaces) {
      serve::FeaturesRequest request;
      request.id = patch->commit;
      request.space = s.wire;
      const serve::Response response = dataset.features(request);
      ASSERT_EQ(response.status, serve::Status::kOk);
      const std::vector<double> offline = feature::extract(*patch, s.space);
      ASSERT_EQ(response.features.vector.size(), feature::feature_dims(s.space));
      EXPECT_EQ(std::memcmp(response.features.vector.data(), offline.data(),
                            offline.size() * sizeof(double)),
                0)
          << patch->commit << " space " << static_cast<int>(s.space);
    }
  }
}

TEST(ServeDataset, StatsMatchOfflineCategorizerScan) {
  const serve::ServedDataset dataset = make_dataset();
  const core::PatchDb& db = shared_db();
  const serve::Response response = dataset.stats(serve::StatsRequest{});
  ASSERT_EQ(response.status, serve::Status::kOk);
  const serve::StatsResponse& stats = response.stats;

  EXPECT_EQ(stats.nvd, db.nvd_security.size());
  EXPECT_EQ(stats.wild, db.wild_security.size());
  EXPECT_EQ(stats.nonsecurity, db.nonsecurity.size());
  EXPECT_EQ(stats.synthetic, db.synthetic.size());

  // Offline Table V scan over the same records.
  std::uint64_t security_total = 0;
  std::uint64_t agreement = 0;
  std::vector<std::uint64_t> labeled(corpus::kSecurityTypeCount, 0);
  std::vector<std::uint64_t> predicted(corpus::kSecurityTypeCount, 0);
  std::vector<const corpus::CommitRecord*> records;
  for (const corpus::CommitRecord& r : db.nvd_security) records.push_back(&r);
  for (const corpus::CommitRecord& r : db.wild_security) records.push_back(&r);
  for (const corpus::CommitRecord& r : db.nonsecurity) records.push_back(&r);
  for (const corpus::CommitRecord* r : records) {
    if (!corpus::is_security_type(r->truth.type)) continue;
    ++security_total;
    ++labeled[static_cast<std::size_t>(static_cast<int>(r->truth.type)) - 1];
    const corpus::PatchType p = core::categorize(r->patch);
    if (corpus::is_security_type(p)) {
      ++predicted[static_cast<std::size_t>(static_cast<int>(p)) - 1];
    }
    if (p == r->truth.type) ++agreement;
  }
  EXPECT_EQ(stats.security_total, security_total);
  EXPECT_EQ(stats.agreement, agreement);
  ASSERT_EQ(stats.categories.size(), corpus::kSecurityTypeCount);
  for (std::size_t i = 0; i < corpus::kSecurityTypeCount; ++i) {
    EXPECT_EQ(stats.categories[i].type, static_cast<std::int64_t>(i + 1));
    EXPECT_EQ(stats.categories[i].labeled, labeled[i]);
    EXPECT_EQ(stats.categories[i].predicted, predicted[i]);
  }
}

TEST(ServeDataset, LookupAndAnalyzeMatchOfflinePaths) {
  const serve::ServedDataset dataset = make_dataset();
  const core::PatchDb& db = shared_db();
  const corpus::CommitRecord& record = db.nvd_security.front();

  serve::LookupRequest lookup;
  lookup.id = record.patch.commit;
  const serve::Response looked = dataset.lookup(lookup);
  ASSERT_EQ(looked.status, serve::Status::kOk);
  EXPECT_EQ(looked.lookup.patch_text, diff::render_patch(record.patch));
  EXPECT_EQ(looked.lookup.component, serve::WireComponent::kNvd);
  EXPECT_EQ(looked.lookup.repo, record.repo);

  // Submitting that very text to analyze categorizes identically to the
  // offline categorizer on the parsed patch.
  serve::AnalyzeRequest analyze;
  analyze.diff_text = looked.lookup.patch_text;
  const serve::Response analyzed = dataset.analyze(analyze);
  ASSERT_EQ(analyzed.status, serve::Status::kOk);
  EXPECT_EQ(analyzed.analyze.category,
            static_cast<std::int64_t>(core::categorize(record.patch)));
}

TEST(ServeDataset, AnalyzeRunsTheAnalysisOnce) {
  // The removed dereference carries no call, check, declaration or
  // jump, so the syntactic cascade is inconclusive and the checkers
  // break the tie with the request's own analysis. The free hides
  // inside a wrapper, so only the interprocedural analysis sees a
  // use-after-free fixed; the intraprocedural one sees an unguarded
  // dereference of a parameter go.
  const serve::ServedDataset dataset = make_dataset();
  serve::AnalyzeRequest analyze;
  analyze.diff_text =
      "diff --git a/ctx.c b/ctx.c\n"
      "--- a/ctx.c\n"
      "+++ b/ctx.c\n"
      "@@ -1,4 +1,4 @@ static void release_ctx(char *c)\n"
      " static void release_ctx(char *c)\n"
      " {\n"
      "     free(c);\n"
      " }\n"
      "@@ -10,6 +10,5 @@ static int handle(char *c, int n)\n"
      " static int handle(char *c, int n)\n"
      " {\n"
      "     release_ctx(c);\n"
      "-    n = *c;\n"
      "     return n;\n"
      " }\n";
  for (const bool interproc : {false, true}) {
    analyze.interproc = interproc;
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* previous = obs::install_registry(&registry);
    const serve::Response analyzed = dataset.analyze(analyze);
    obs::install_registry(previous);
    ASSERT_EQ(analyzed.status, serve::Status::kOk) << analyzed.error;
    const corpus::PatchType expected = interproc
                                           ? corpus::PatchType::kVarValue
                                           : corpus::PatchType::kNullCheck;
    EXPECT_EQ(analyzed.analyze.category, static_cast<std::int64_t>(expected))
        << "interproc " << interproc;
    EXPECT_EQ(registry.snapshot().counter("analysis.patches"), 1u)
        << "interproc " << interproc;
  }
}

TEST(ServeDataset, RejectsBadQueries) {
  const serve::ServedDataset dataset = make_dataset();

  serve::LookupRequest lookup;
  lookup.id = "0000000000000000000000000000000000000000";
  EXPECT_EQ(dataset.lookup(lookup).status, serve::Status::kNotFound);

  serve::NearestRequest nearest;
  nearest.by_id = false;
  nearest.vector = {1.0, 2.0};  // wrong dimensionality
  EXPECT_EQ(dataset.nearest(nearest).status, serve::Status::kBadRequest);
  // A component that is not finite, or not finite once scaled to float,
  // is refused by name.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e300}) {
    nearest.vector.assign(feature::kFeatureCount, 0.5);
    nearest.vector[7] = bad;
    const serve::Response refused = dataset.nearest(nearest);
    EXPECT_EQ(refused.status, serve::Status::kBadRequest) << bad;
    EXPECT_NE(refused.error.find("component 7 "), std::string::npos)
        << refused.error;
  }
  nearest.by_id = true;
  nearest.id = natural_patches().front()->commit;
  nearest.k = 0;
  EXPECT_EQ(dataset.nearest(nearest).status, serve::Status::kBadRequest);

  serve::AnalyzeRequest analyze;
  analyze.diff_text = "this is not a unified diff";
  EXPECT_EQ(dataset.analyze(analyze).status, serve::Status::kBadRequest);
  // A hunk header past SIZE_MAX is malformed, not line 1.
  analyze.diff_text =
      "diff --git a/a.c b/a.c\n--- a/a.c\n+++ b/a.c\n"
      "@@ -18446744073709551617,1 +18446744073709551617,1 @@\n-old\n+new\n";
  const serve::Response overflow = dataset.analyze(analyze);
  EXPECT_EQ(overflow.status, serve::Status::kBadRequest);
  EXPECT_NE(overflow.error.find("malformed hunk header"), std::string::npos)
      << overflow.error;
}

// -------------------------------------------------------------- server --

TEST(ServeServer, Serves64ConcurrentConnectionsAcrossAllOps) {
  const serve::ServedDataset dataset = make_dataset();
  serve::Server server(dataset, serve::ServerOptions{});
  server.start();

  const std::vector<const diff::Patch*> natural = natural_patches();
  const std::string query_id = natural.front()->commit;

  // Single-connection reference results; the concurrent storm must
  // reproduce them exactly (same immutable snapshot, same kernels).
  serve::Client reference;
  reference.connect("127.0.0.1", server.port());
  const serve::Response ref_nearest = reference.nearest_by_id(query_id, 5);
  const serve::Response ref_stats = reference.stats();
  const serve::Response ref_lookup = reference.lookup(query_id);
  ASSERT_EQ(ref_nearest.status, serve::Status::kOk);
  ASSERT_EQ(ref_stats.status, serve::Status::kOk);
  ASSERT_EQ(ref_lookup.status, serve::Status::kOk);
  reference.close();

  constexpr std::size_t kConns = 64;
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> ok_requests{0};
  std::vector<std::thread> threads;
  threads.reserve(kConns);
  for (std::size_t t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      try {
        serve::Client client;
        client.connect("127.0.0.1", server.port());
        const std::string& id = natural[t % natural.size()]->commit;

        const serve::Response lookup = client.lookup(query_id);
        const serve::Response features = client.features(id);
        const serve::Response nearest = client.nearest_by_id(query_id, 5);
        const serve::Response stats = client.stats();
        const serve::Response analyze =
            client.analyze(ref_lookup.lookup.patch_text);
        for (const serve::Response* r :
             {&lookup, &features, &nearest, &stats, &analyze}) {
          if (r->status != serve::Status::kOk) {
            failures.fetch_add(1);
          } else {
            ok_requests.fetch_add(1);
          }
        }
        // Bit-identical across connections and to the reference.
        if (!(nearest.nearest == ref_nearest.nearest)) failures.fetch_add(1);
        if (!(stats.stats == ref_stats.stats)) failures.fetch_add(1);
        if (lookup.lookup.patch_text != ref_lookup.lookup.patch_text) {
          failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ok_requests.load(), kConns * 5);
  EXPECT_GE(server.connections_accepted(), kConns);
}

TEST(ServeServer, MalformedFrameGetsErrorResponseAndClose) {
  const serve::ServedDataset dataset = make_dataset();
  serve::Server server(dataset, serve::ServerOptions{});
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // A frame header advertising a body far beyond the cap.
  const unsigned char evil[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::send(fd, evil, sizeof(evil), MSG_NOSIGNAL), 4);

  // The server answers with one kBadRequest frame, then closes.
  unsigned char header[4];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = ::recv(fd, header + got, sizeof(header) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const std::size_t body_len = serve::parse_frame_header(header);
  std::string body(body_len, '\0');
  got = 0;
  while (got < body_len) {
    const ssize_t n = ::recv(fd, body.data() + got, body_len - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const serve::Response response = serve::decode_response(serve::Op::kPing, body);
  EXPECT_EQ(response.status, serve::Status::kBadRequest);

  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // orderly close
  ::close(fd);
  server.stop();
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeServer, MidFrameDisconnectIsNotAProtocolError) {
  // Regression: a peer that hangs up partway through a frame — after a
  // partial header, or after a header whose declared body never fully
  // arrives — is an ordinary slow-socket disconnect. It used to fall
  // into the generic error path; it must never be logged as frame
  // corruption.
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);
  const serve::ServedDataset dataset = make_dataset();
  serve::Server server(dataset, serve::ServerOptions{});
  server.start();

  // Connection 1: a complete header promising 100 body bytes, then only
  // 10 of them, then EOF.
  int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  const unsigned char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), 4);
  const char partial[10] = {};
  ASSERT_EQ(::send(fd, partial, sizeof(partial), MSG_NOSIGNAL), 10);
  ::close(fd);

  // Connection 2: EOF after half a header.
  fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, header, 2, MSG_NOSIGNAL), 2);
  ::close(fd);

  // Wait until both handlers have observed the EOFs (stop() alone could
  // win the race against the acceptor picking up connection 2), then
  // drain.
  for (int i = 0; i < 500; ++i) {
    if (registry.snapshot().counter("serve.disconnects_midframe") >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
  obs::install_registry(previous);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("serve.disconnects_midframe"), 2u);
  EXPECT_EQ(snap.counter("serve.protocol_errors"), 0u);
  EXPECT_EQ(snap.counter("serve.socket_errors"), 0u);
}

TEST(ServeServer, ZeroLengthFrameIsStillMalformed) {
  // The flip side of the disconnect fix: an explicit zero body length
  // violates the framing (bodies are 1..kMaxFrameBytes) and must keep
  // counting as a protocol error, answered with kBadRequest.
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);
  const serve::ServedDataset dataset = make_dataset();
  serve::Server server(dataset, serve::ServerOptions{});
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  const unsigned char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fd, zero, sizeof(zero), MSG_NOSIGNAL), 4);

  unsigned char header[4];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = ::recv(fd, header + got, sizeof(header) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const std::size_t body_len = serve::parse_frame_header(header);
  std::string body(body_len, '\0');
  got = 0;
  while (got < body_len) {
    const ssize_t n = ::recv(fd, body.data() + got, body_len - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const serve::Response response =
      serve::decode_response(serve::Op::kPing, body);
  EXPECT_EQ(response.status, serve::Status::kBadRequest);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // orderly close
  ::close(fd);

  server.stop();
  obs::install_registry(previous);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("serve.protocol_errors"), 1u);
  EXPECT_EQ(snap.counter("serve.disconnects_midframe"), 0u);
}

TEST(ServeServer, GracefulDrainAnswersInFlightThenRefusesNew) {
  const serve::ServedDataset dataset = make_dataset();
  serve::Server server(dataset, serve::ServerOptions{});
  server.start();
  const std::uint16_t port = server.port();

  // Clients hammer ping until the drain cuts them off; every response
  // that does arrive must decode as kOk (no torn frames on shutdown).
  constexpr std::size_t kClients = 4;
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      try {
        serve::Client client;
        client.connect("127.0.0.1", port);
        for (;;) {
          const serve::Response r = client.ping();
          if (r.status == serve::Status::kOk) {
            ok.fetch_add(1);
          } else {
            bad.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        // Drain closed the connection at a frame boundary — expected.
      }
    });
  }
  // Let the clients get some requests through, then drain.
  while (ok.load() < kClients) {
    std::this_thread::yield();
  }
  server.stop();
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GE(ok.load(), kClients);
  EXPECT_FALSE(server.running());

  // The listen socket is gone: new connections are refused.
  serve::Client late;
  EXPECT_THROW(late.connect("127.0.0.1", port), std::runtime_error);
}

TEST(ServeServer, ShedsConnectionsPastMaxConnections) {
  // A limit of two: the second connection is served while the first
  // stays open, and the third is answered busy and closed at once.
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);
  const serve::ServedDataset dataset = make_dataset();
  serve::ServerOptions options;
  options.max_connections = 2;
  serve::Server server(dataset, options);
  server.start();

  serve::Client first;
  first.connect("127.0.0.1", server.port());
  ASSERT_EQ(first.ping().status, serve::Status::kOk);
  serve::Client second;
  second.connect("127.0.0.1", server.port(), std::chrono::milliseconds(2000));
  ASSERT_EQ(second.ping().status, serve::Status::kOk);

  // The acceptor takes connections in order, so the third is the one
  // past the limit. It gets the busy frame without sending a byte.
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  unsigned char header[4];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = ::recv(fd, header + got, sizeof(header) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const std::size_t body_len = serve::parse_frame_header(header);
  std::string body(body_len, '\0');
  got = 0;
  while (got < body_len) {
    const ssize_t n = ::recv(fd, body.data() + got, body_len - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const serve::Response busy = serve::decode_response(serve::Op::kPing, body);
  EXPECT_EQ(busy.status, serve::Status::kBusy);
  EXPECT_NE(busy.error.find("server at capacity"), std::string::npos)
      << busy.error;
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // orderly close
  ::close(fd);

  EXPECT_EQ(first.ping().status, serve::Status::kOk);
  EXPECT_EQ(second.ping().status, serve::Status::kOk);
  first.close();
  second.close();

  server.stop();
  obs::install_registry(previous);
  EXPECT_EQ(server.connections_shed(), 1u);
  EXPECT_EQ(server.connections_accepted(), 3u);
  EXPECT_EQ(registry.snapshot().counter("serve.connections_shed"), 1u);
}

TEST(ServeServer, IdleConnectionsDoNotDelayAPing) {
  // Six silent connections under a limit of eight: each has its own
  // thread, so a ping on a seventh is answered at once instead of
  // waiting for an idle socket's read timeout.
  const serve::ServedDataset dataset = make_dataset();
  serve::ServerOptions options;
  options.max_connections = 8;
  options.read_timeout = std::chrono::milliseconds(3000);
  serve::Server server(dataset, options);
  server.start();

  std::vector<int> idle;
  for (int i = 0; i < 6; ++i) {
    idle.push_back(connect_to(server.port()));
    ASSERT_GE(idle.back(), 0);
  }
  const auto start = std::chrono::steady_clock::now();
  serve::Client client;
  client.connect("127.0.0.1", server.port(), std::chrono::milliseconds(2000));
  const serve::Response pong = client.ping();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(pong.status, serve::Status::kOk);
  EXPECT_LT(waited, std::chrono::milliseconds(100));

  client.close();
  for (const int fd : idle) ::close(fd);
  server.stop();
  EXPECT_EQ(server.connections_shed(), 0u);
}

TEST(ServeServer, ClientThatNeverReadsIsClosedAtTheReadTimeout) {
  // A client with a 4 KiB receive buffer pipelines lookups of the
  // largest patch and reads no response, until its own writes stall.
  // The server's send moves no byte from then on, so the read timeout
  // closes the connection: the thread is freed, and the drain does not
  // wait for the client. Where the send has no deadline, stop() blocks
  // until the client closes; the test closes it after 2 s, then fails.
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);
  const serve::ServedDataset dataset = make_dataset();
  serve::ServerOptions options;
  options.max_connections = 2;
  options.read_timeout = std::chrono::milliseconds(300);
  serve::Server server(dataset, options);
  server.start();

  const std::vector<const diff::Patch*> natural = natural_patches();
  const diff::Patch* largest = *std::max_element(
      natural.begin(), natural.end(), [](const diff::Patch* a, const diff::Patch* b) {
        return diff::render_patch(*a).size() < diff::render_patch(*b).size();
      });
  serve::Request lookup;
  lookup.op = serve::Op::kLookup;
  lookup.lookup.id = largest->commit;
  const std::string request = serve::frame(serve::encode_request(lookup));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  std::size_t offset = 0;
  for (;;) {
    const ssize_t n = ::send(fd, request.data() + offset, request.size() - offset,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      offset = (offset + static_cast<std::size_t>(n)) % request.size();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 200) == 0) break;  // the server stopped reading
      continue;
    }
    break;  // the server already closed the connection
  }

  const auto start = std::chrono::steady_clock::now();
  serve::Client client;
  client.connect("127.0.0.1", server.port(), std::chrono::milliseconds(2000));
  const serve::Response pong = client.ping();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(pong.status, serve::Status::kOk);
  EXPECT_LT(waited, std::chrono::milliseconds(100));
  client.close();

  // The stalled send times out about 300 ms after its last byte moved.
  for (int i = 0; i < 200; ++i) {
    if (registry.snapshot().counter("serve.timeouts") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::promise<void> stopped;
  std::future<void> stop_done = stopped.get_future();
  std::thread stopper([&] {
    server.stop();
    stopped.set_value();
  });
  const bool in_time =
      stop_done.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  ::close(fd);  // frees a server still blocked on this client
  stopper.join();
  obs::install_registry(previous);
  EXPECT_TRUE(in_time) << "stop() waited on a client that never reads";
  EXPECT_GE(registry.snapshot().counter("serve.timeouts"), 1u);
}

TEST(ServeServer, ResponsePastTheFrameCapIsAServerError) {
  // A lookup of an 18 MB patch cannot be framed under the 16 MiB cap:
  // the client gets kServerError within the read timeout rather than no
  // reply, the connection goes on, and once it closes its slot serves
  // the next one.
  const core::PatchDb& db = shared_db();
  const std::string huge_id(40, 'f');
  std::vector<synth::SyntheticPatch> synthetic(1);
  diff::Patch& huge = synthetic.front().patch;
  huge.commit = huge_id;
  diff::FileDiff& file = huge.files.emplace_back();
  file.old_path = file.new_path = "huge.c";
  diff::Hunk& hunk = file.hunks.emplace_back();
  hunk.old_start = hunk.new_start = 1;
  hunk.lines.assign(300'000, diff::Line{diff::LineKind::kAdded,
                                        std::string(59, 'x')});
  hunk.new_count = hunk.lines.size();
  ASSERT_GT(diff::render_patch(huge).size(), serve::kMaxFrameBytes);
  const serve::ServedDataset dataset = serve::ServedDataset::from_components(
      db.nvd_security, db.wild_security, db.nonsecurity, std::move(synthetic));

  serve::ServerOptions options;
  options.max_connections = 1;
  options.read_timeout = std::chrono::milliseconds(2000);
  serve::Server server(dataset, options);
  server.start();

  serve::Client client;
  client.connect("127.0.0.1", server.port(), options.read_timeout);
  const serve::Response refused = client.lookup(huge_id);
  EXPECT_EQ(refused.status, serve::Status::kServerError);
  EXPECT_NE(refused.error.find("frame cap"), std::string::npos)
      << refused.error;
  EXPECT_EQ(client.ping().status, serve::Status::kOk);
  client.close();

  // The server notices the close a moment later; until then a new
  // connection is shed, after that it is served.
  serve::Response pong;
  for (int attempt = 0; attempt < 200; ++attempt) {
    serve::Client next;
    next.connect("127.0.0.1", server.port(), options.read_timeout);
    pong = next.ping();
    if (pong.status != serve::Status::kBusy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(pong.status, serve::Status::kOk);
  server.stop();
}

TEST(ServeServer, RequestSpansAndMetricsAreNamedByOp) {
  // Each op's span, request counter and latency histogram carry exactly
  // the op's own name, once per request.
  obs::ObsSession session("serve_names");
  if (!session.installed()) GTEST_SKIP() << "PATCHDB_OBS_DISABLED set";
  const serve::ServedDataset dataset = make_dataset();
  serve::Server server(dataset, serve::ServerOptions{});
  server.start();

  const std::string id = natural_patches().front()->commit;
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.ping().status, serve::Status::kOk);
  const serve::Response lookup = client.lookup(id);
  ASSERT_EQ(lookup.status, serve::Status::kOk);
  ASSERT_EQ(client.features(id).status, serve::Status::kOk);
  ASSERT_EQ(client.nearest_by_id(id, 3).status, serve::Status::kOk);
  ASSERT_EQ(client.stats().status, serve::Status::kOk);
  ASSERT_EQ(client.analyze(lookup.lookup.patch_text).status,
            serve::Status::kOk);
  ASSERT_EQ(client.list_ids().status, serve::Status::kOk);
  client.close();
  server.stop();  // joins the connection's thread: its spans are closed

  const std::vector<obs::SpanRecord> spans = session.tracer().snapshot();
  const obs::MetricsSnapshot metrics = session.registry().snapshot();
  for (const serve::Op op :
       {serve::Op::kPing, serve::Op::kLookup, serve::Op::kFeatures,
        serve::Op::kNearest, serve::Op::kStats, serve::Op::kAnalyze,
        serve::Op::kListIds}) {
    const std::string name = "serve." + std::string(serve::op_name(op));
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [&](const obs::SpanRecord& span) {
                              return span.name == name;
                            }),
              1)
        << name;
    EXPECT_EQ(metrics.counter("serve.requests." +
                              std::string(serve::op_name(op))),
              1u)
        << name;
    const obs::HistogramSnapshot* latency = metrics.histogram(name + "_ms");
    ASSERT_NE(latency, nullptr) << name;
    EXPECT_EQ(latency->count, 1u) << name;
  }
}

// ------------------------------------------------------ read-only store --

class ServeStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("patchdb_serve_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    store::export_patchdb(shared_db(), root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ServeStoreTest, ConcurrentLoadsOfOneSealedExportAgree) {
  constexpr std::size_t kLoaders = 8;
  const core::PatchDb& db = shared_db();
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kLoaders; ++t) {
    threads.emplace_back([&] {
      try {
        const serve::ServedDataset loaded = serve::ServedDataset::load(root_);
        if (loaded.size() != db.nvd_security.size() +
                                 db.wild_security.size() +
                                 db.nonsecurity.size() + db.synthetic.size()) {
          failures.fetch_add(1);
        }
        if (loaded.find(db.nvd_security.front().patch.commit) ==
            serve::ServedDataset::npos) {
          failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ServeStoreTest, TruncatedManifestIsRefusedAtStartup) {
  const auto size = fs::file_size(root_ / "manifest.csv");
  fs::resize_file(root_ / "manifest.csv", size - 9);
  try {
    serve::ServedDataset::load(root_);
    FAIL() << "truncated manifest loaded";
  } catch (const std::runtime_error& e) {
    // The refusal must say what is wrong, not just crash.
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(ServeStoreTest, CorruptedPatchContentIsRefusedAtStartup) {
  // Flip one byte of the nvd pack, inside its version line.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(root_ / "nvd")) {
    victim = entry.path();
    break;
  }
  ASSERT_FALSE(victim.empty());
  std::fstream file(victim,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(10);
  file.put('\x7f');
  file.close();
  EXPECT_THROW(serve::ServedDataset::load(root_), std::runtime_error);
}

}  // namespace
}  // namespace patchdb
