#include "serve/dataset.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/analyze.h"
#include "analysis/report.h"
#include "core/categorize.h"
#include "core/distance.h"
#include "core/query.h"
#include "diff/parse.h"
#include "diff/render.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/export.h"

namespace patchdb::serve {

namespace {

// The wire enumerators are feature::FeatureSpace's, in the same order, so
// a decoded request converts with a cast.
static_assert(static_cast<int>(WireFeatureSpace::kSyntactic) ==
              static_cast<int>(feature::FeatureSpace::kSyntactic));
static_assert(static_cast<int>(WireFeatureSpace::kSemantic) ==
              static_cast<int>(feature::FeatureSpace::kSemantic));
static_assert(static_cast<int>(WireFeatureSpace::kInterproc) ==
              static_cast<int>(feature::FeatureSpace::kInterproc));

ServedPatch make_served(corpus::CommitRecord&& record, WireComponent component) {
  ServedPatch served;
  served.id = record.patch.commit;
  served.component = component;
  served.truth = record.truth;
  served.repo = std::move(record.repo);
  served.patch = std::move(record.patch);
  return served;
}

}  // namespace

ServedDataset ServedDataset::load(const std::filesystem::path& root) {
  PATCHDB_TRACE_SPAN("serve.dataset.load");
  store::LoadedPatchDb db = store::load_patchdb(root);
  return from_components(std::move(db.nvd_security), std::move(db.wild_security),
                         std::move(db.nonsecurity), std::move(db.synthetic));
}

ServedDataset ServedDataset::from_components(
    std::vector<corpus::CommitRecord> nvd,
    std::vector<corpus::CommitRecord> wild,
    std::vector<corpus::CommitRecord> nonsecurity,
    std::vector<synth::SyntheticPatch> synthetic) {
  ServedDataset data;
  data.patches_.reserve(nvd.size() + wild.size() + nonsecurity.size() +
                        synthetic.size());
  data.stats_.nvd = nvd.size();
  data.stats_.wild = wild.size();
  data.stats_.nonsecurity = nonsecurity.size();
  data.stats_.synthetic = synthetic.size();

  // Natural patches first, in export order (nvd, wild, nonsecurity):
  // their positions double as rows of the nearest-query corpus.
  for (corpus::CommitRecord& r : nvd) {
    data.patches_.push_back(make_served(std::move(r), WireComponent::kNvd));
  }
  for (corpus::CommitRecord& r : wild) {
    data.patches_.push_back(make_served(std::move(r), WireComponent::kWild));
  }
  for (corpus::CommitRecord& r : nonsecurity) {
    data.patches_.push_back(
        make_served(std::move(r), WireComponent::kNonsecurity));
  }
  data.natural_rows_ = data.patches_.size();

  for (synth::SyntheticPatch& s : synthetic) {
    ServedPatch served;
    served.id = s.patch.commit;
    served.component = WireComponent::kSynthetic;
    served.truth = s.truth;
    served.origin = std::move(s.origin_commit);
    served.variant = static_cast<int>(s.variant);
    served.modified_after = s.modified_after;
    served.patch = std::move(s.patch);
    data.patches_.push_back(std::move(served));
  }

  data.index_and_precompute();
  return data;
}

void ServedDataset::index_and_precompute() {
  PATCHDB_TRACE_SPAN("serve.dataset.precompute");
  by_id_.reserve(patches_.size());
  for (std::size_t i = 0; i < patches_.size(); ++i) {
    const auto [it, inserted] =
        by_id_.emplace(std::string_view(patches_[i].id), i);
    if (!inserted) {
      throw std::runtime_error("serve: duplicate patch id " + patches_[i].id);
    }
  }

  // The nearest-query corpus: Table I features of the natural patches,
  // scaled by the max-abs weights learned over that same set — the
  // Section III-B.2 normalization with the served corpus as the union.
  std::vector<const diff::Patch*> natural;
  natural.reserve(natural_rows_);
  for (std::size_t i = 0; i < natural_rows_; ++i) {
    natural.push_back(&patches_[i].patch);
  }
  natural_features_ = feature::extract_all(natural);
  dims_ = natural_features_.cols();
  if (natural_rows_ > 0) {
    weights_ = core::maxabs_weights(natural_features_, natural_features_);
    scaled_ = core::scale_features(natural_features_, weights_);
    corpus_ = core::pack_corpus(scaled_, dims_);
  }

  // Table V composition over the labeled security patches, tallied as
  // `patchdb stats` tallies it offline.
  core::CompositionTally tally;
  for (std::size_t i = 0; i < natural_rows_; ++i) {
    tally.add(patches_[i].patch, patches_[i].truth.type);
  }
  stats_.security_total = tally.total;
  stats_.agreement = tally.agreement;
  stats_.categories.resize(corpus::kSecurityTypeCount);
  for (std::size_t i = 0; i < corpus::kSecurityTypeCount; ++i) {
    stats_.categories[i] = {.type = static_cast<std::int64_t>(i + 1),
                            .labeled = tally.labeled[i],
                            .predicted = tally.predicted[i]};
  }
  PATCHDB_GAUGE_SET("serve.dataset.patches",
                    static_cast<double>(patches_.size()));
}

std::size_t ServedDataset::find(std::string_view id) const noexcept {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? npos : it->second;
}

PingResponse ServedDataset::ping() const {
  PingResponse response;
  response.patches = patches_.size();
  return response;
}

Response ServedDataset::lookup(const LookupRequest& request) const {
  const std::size_t index = find(request.id);
  if (index == npos) {
    return error_response(Status::kNotFound,
                          "unknown patch id " + request.id);
  }
  const ServedPatch& served = patches_[index];
  Response response;
  response.lookup.component = served.component;
  response.lookup.is_security = served.truth.is_security;
  response.lookup.type = static_cast<std::int64_t>(served.truth.type);
  response.lookup.repo = served.repo;
  response.lookup.origin = served.origin;
  response.lookup.patch_text = diff::render_patch(served.patch);
  return response;
}

Response ServedDataset::features(const FeaturesRequest& request) const {
  const std::size_t index = find(request.id);
  if (index == npos) {
    return error_response(Status::kNotFound,
                          "unknown patch id " + request.id);
  }
  Response response;
  // Syntactic vectors of natural patches come straight from the
  // precomputed matrix; the extended spaces (and synthetic patches)
  // extract on demand — the extractor is pure, so either path yields
  // the offline-identical vector.
  const auto space = static_cast<feature::FeatureSpace>(request.space);
  if (space == feature::FeatureSpace::kSyntactic && index < natural_rows_) {
    const std::span<const double> row = natural_features_[index];
    response.features.vector.assign(row.begin(), row.end());
    return response;
  }
  response.features.vector = feature::extract(patches_[index].patch, space);
  return response;
}

Response ServedDataset::nearest(const NearestRequest& request) const {
  if (natural_rows_ == 0) {
    return error_response(Status::kBadRequest,
                          "dataset has no natural patches to search");
  }
  if (request.k == 0) {
    return error_response(Status::kBadRequest, "k must be positive");
  }
  std::vector<float> query_storage;
  std::span<const float> query;
  if (request.by_id) {
    const std::size_t index = find(request.id);
    if (index == npos) {
      return error_response(Status::kNotFound,
                            "unknown patch id " + request.id);
    }
    if (index < natural_rows_) {
      query = std::span<const float>(scaled_).subspan(index * dims_, dims_);
    } else {
      // Synthetic query patch: featurize on demand, scale identically.
      query_storage = core::scale_query(
          feature::extract(patches_[index].patch), weights_);
      query = query_storage;
    }
  } else {
    if (request.vector.size() != dims_) {
      return error_response(
          Status::kBadRequest,
          "query vector has " + std::to_string(request.vector.size()) +
              " dimensions, dataset uses " + std::to_string(dims_));
    }
    query_storage = core::scale_query(request.vector, weights_);
    // A NaN, an infinity, or a value past a float once scaled would rank
    // every row at a NaN or infinite distance.
    for (std::size_t j = 0; j < dims_; ++j) {
      if (!std::isfinite(query_storage[j])) {
        return error_response(Status::kBadRequest,
                              "query vector component " + std::to_string(j) +
                                  " is not finite once scaled to float");
      }
    }
    query = query_storage;
  }

  const std::vector<core::KnnHit> hits =
      core::knn_query(corpus_, query, request.k);
  Response response;
  response.nearest.hits.reserve(hits.size());
  for (const core::KnnHit& hit : hits) {
    response.nearest.hits.push_back(
        {patches_[hit.index].id, hit.distance});
  }
  return response;
}

Response ServedDataset::stats(const StatsRequest&) const {
  Response response;
  response.stats = stats_;
  return response;
}

Response ServedDataset::analyze(const AnalyzeRequest& request) const {
  diff::Patch patch;
  try {
    patch = diff::parse_patch(request.diff_text);
  } catch (const std::exception& e) {
    return error_response(Status::kBadRequest,
                          std::string("diff does not parse: ") + e.what());
  }
  if (patch.files.empty()) {
    return error_response(Status::kBadRequest,
                          "diff contains no file changes");
  }
  analysis::AnalyzeOptions analyze_options;
  analyze_options.interproc = request.interproc;
  const analysis::PatchAnalysis pa =
      analysis::analyze_patch(patch, analyze_options);
  Response response;
  response.analyze.category =
      static_cast<std::int64_t>(core::categorize(patch, pa));
  response.analyze.resolved = pa.resolved.size();
  response.analyze.introduced = pa.introduced.size();
  response.analyze.report = analysis::render_report(pa);
  return response;
}

Response ServedDataset::list_ids(const ListIdsRequest& request) const {
  Response response;
  const std::size_t limit =
      request.limit == 0 ? patches_.size() : request.limit;
  for (const ServedPatch& served : patches_) {
    if (response.list_ids.ids.size() >= limit) break;
    if (request.component != WireComponent::kAll &&
        served.component != request.component) {
      continue;
    }
    response.list_ids.ids.push_back(served.id);
  }
  return response;
}

Response ServedDataset::handle(const Request& request) const {
  switch (request.op) {
    case Op::kPing: {
      Response response;
      response.ping = ping();
      return response;
    }
    case Op::kLookup: return lookup(request.lookup);
    case Op::kFeatures: return features(request.features);
    case Op::kNearest: return nearest(request.nearest);
    case Op::kStats: return stats(request.stats);
    case Op::kAnalyze: return analyze(request.analyze);
    case Op::kListIds: return list_ids(request.list_ids);
  }
  return error_response(Status::kBadRequest, "unknown request op");
}

}  // namespace patchdb::serve
