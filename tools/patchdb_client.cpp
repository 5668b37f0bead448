// patchdb_client — command-line client for a running patchdbd.
//
//   patchdb_client <command> [args] --port P [--host H]
//     ping
//     lookup ID
//     features ID [--semantic | --interproc]
//     nearest ID [--k K]
//     nearest --vector "v0,v1,..." [--k K]
//     stats
//     analyze FILE.patch [--interproc]
//     ids [--component nvd|wild|nonsecurity|synthetic] [--limit N]
//
// Exit 0 on a kOk response, 1 on a server-reported error or transport
// failure, 2 on usage errors, including a flag the command does not
// take.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "serve/client.h"
#include "util/file.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace patchdb;

int usage() {
  std::fprintf(stderr,
               "usage: patchdb_client <command> [args] --port P [--host H]\n"
               "  ping\n"
               "  lookup ID\n"
               "  features ID [--semantic | --interproc]\n"
               "  nearest ID [--k K]\n"
               "  nearest --vector \"v0,v1,...\" [--k K]\n"
               "  stats\n"
               "  analyze FILE.patch [--interproc]\n"
               "  ids [--component nvd|wild|nonsecurity|synthetic]"
               " [--limit N]\n");
  return 2;
}

std::string_view component_name(serve::WireComponent component) {
  switch (component) {
    case serve::WireComponent::kAll: return "all";
    case serve::WireComponent::kNvd: return "nvd";
    case serve::WireComponent::kWild: return "wild";
    case serve::WireComponent::kNonsecurity: return "nonsecurity";
    case serve::WireComponent::kSynthetic: return "synthetic";
  }
  return "unknown";
}

/// Print a non-kOk response and return the tool's failure exit code.
int report_error(const serve::Response& response) {
  std::fprintf(stderr, "patchdb_client: %s: %s\n",
               std::string(serve::status_name(response.status)).c_str(),
               response.error.c_str());
  return 1;
}

/// Declare `command`'s flags; false (after naming the flag) when an
/// argument is a flag it does not take.
bool accept_flags(const std::string& command, util::Flags& flags) {
  std::vector<std::string> values = {"--host", "--port"};
  std::vector<std::string> switches;
  if (command == "features") switches = {"--semantic", "--interproc"};
  if (command == "nearest") values.insert(values.end(), {"--k", "--vector"});
  if (command == "analyze") switches = {"--interproc"};
  if (command == "ids") values.insert(values.end(), {"--component", "--limit"});
  return flags.accept(values, switches);
}

int run(const std::string& command, const util::Flags& flags) {
  const std::string host = flags.value("--host", std::string("127.0.0.1"));
  const std::size_t port = flags.value("--port", std::size_t{0});
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "patchdb_client: --port P (1..65535) is required\n");
    return 2;
  }

  serve::Client client;
  client.connect(host, static_cast<std::uint16_t>(port));

  if (command == "ping") {
    const serve::Response r = client.ping();
    if (r.status != serve::Status::kOk) return report_error(r);
    std::printf("protocol v%u, %llu patches\n", r.ping.protocol_version,
                static_cast<unsigned long long>(r.ping.patches));
    return 0;
  }

  if (command == "lookup") {
    const std::string id = flags.positional();
    if (id.empty()) return usage();
    const serve::Response r = client.lookup(id);
    if (r.status != serve::Status::kOk) return report_error(r);
    std::printf("component: %s\nsecurity: %s\ntype: %lld\n",
                std::string(component_name(r.lookup.component)).c_str(),
                r.lookup.is_security ? "yes" : "no",
                static_cast<long long>(r.lookup.type));
    if (!r.lookup.repo.empty()) {
      std::printf("repo: %s\n", r.lookup.repo.c_str());
    }
    if (!r.lookup.origin.empty()) {
      std::printf("origin: %s\n", r.lookup.origin.c_str());
    }
    std::printf("---\n%s", r.lookup.patch_text.c_str());
    return 0;
  }

  if (command == "features") {
    const std::string id = flags.positional();
    if (id.empty()) return usage();
    serve::WireFeatureSpace space = serve::WireFeatureSpace::kSyntactic;
    if (flags.has("--semantic")) space = serve::WireFeatureSpace::kSemantic;
    if (flags.has("--interproc")) space = serve::WireFeatureSpace::kInterproc;
    const serve::Response r = client.features(id, space);
    if (r.status != serve::Status::kOk) return report_error(r);
    for (std::size_t i = 0; i < r.features.vector.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : " ", r.features.vector[i]);
    }
    std::printf("\n");
    return 0;
  }

  if (command == "nearest") {
    const std::uint32_t k =
        static_cast<std::uint32_t>(flags.value("--k", std::size_t{5}));
    serve::Response r;
    const std::string vector_text = flags.value("--vector", std::string());
    if (!vector_text.empty()) {
      std::vector<double> vector;
      for (std::string_view part : util::split(vector_text, ',')) {
        // std::stod would accept trailing junk ("1.5abc") and
        // non-finite spellings ("inf", "nan"); require the element to
        // parse completely to a finite double.
        const std::string text(part);
        char* end = nullptr;
        errno = 0;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || end != text.c_str() + text.size() ||
            errno == ERANGE || !std::isfinite(v)) {
          std::fprintf(stderr, "patchdb_client: bad --vector element \"%s\"\n",
                       text.c_str());
          return 2;
        }
        vector.push_back(v);
      }
      r = client.nearest_by_vector(vector, k);
    } else {
      const std::string id = flags.positional();
      if (id.empty()) return usage();
      r = client.nearest_by_id(id, k);
    }
    if (r.status != serve::Status::kOk) return report_error(r);
    for (const serve::NearestHit& hit : r.nearest.hits) {
      std::printf("%s %.9g\n", hit.id.c_str(),
                  static_cast<double>(hit.distance));
    }
    return 0;
  }

  if (command == "stats") {
    const serve::Response r = client.stats();
    if (r.status != serve::Status::kOk) return report_error(r);
    const serve::StatsResponse& s = r.stats;
    std::printf("nvd: %llu\nwild: %llu\nnonsecurity: %llu\nsynthetic: %llu\n",
                static_cast<unsigned long long>(s.nvd),
                static_cast<unsigned long long>(s.wild),
                static_cast<unsigned long long>(s.nonsecurity),
                static_cast<unsigned long long>(s.synthetic));
    std::printf("security labeled: %llu, categorizer agreement: %llu\n",
                static_cast<unsigned long long>(s.security_total),
                static_cast<unsigned long long>(s.agreement));
    for (const serve::CategoryCount& c : s.categories) {
      std::printf("type %2lld: labeled %llu, predicted %llu\n",
                  static_cast<long long>(c.type),
                  static_cast<unsigned long long>(c.labeled),
                  static_cast<unsigned long long>(c.predicted));
    }
    return 0;
  }

  if (command == "analyze") {
    const std::string path = flags.positional();
    if (path.empty()) return usage();
    const std::optional<std::string> diff_text = util::read_file(path);
    if (!diff_text) {
      std::fprintf(stderr, "patchdb_client: cannot read %s\n", path.c_str());
      return 1;
    }
    const serve::Response r =
        client.analyze(*diff_text, flags.has("--interproc"));
    if (r.status != serve::Status::kOk) return report_error(r);
    std::printf("category: %lld\nresolved: %llu\nintroduced: %llu\n%s",
                static_cast<long long>(r.analyze.category),
                static_cast<unsigned long long>(r.analyze.resolved),
                static_cast<unsigned long long>(r.analyze.introduced),
                r.analyze.report.c_str());
    return 0;
  }

  if (command == "ids") {
    const std::string which = flags.value("--component", std::string("all"));
    serve::WireComponent component = serve::WireComponent::kAll;
    if (which == "nvd") component = serve::WireComponent::kNvd;
    else if (which == "wild") component = serve::WireComponent::kWild;
    else if (which == "nonsecurity") component = serve::WireComponent::kNonsecurity;
    else if (which == "synthetic") component = serve::WireComponent::kSynthetic;
    else if (which != "all") {
      std::fprintf(stderr, "patchdb_client: unknown component \"%s\"\n",
                   which.c_str());
      return 2;
    }
    const std::uint32_t limit =
        static_cast<std::uint32_t>(flags.value("--limit", std::size_t{0}));
    const serve::Response r = client.list_ids(component, limit);
    if (r.status != serve::Status::kOk) return report_error(r);
    for (const std::string& id : r.list_ids.ids) {
      std::printf("%s\n", id.c_str());
    }
    return 0;
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  util::Flags flags(argc, argv, 2, "patchdb_client");
  if (!accept_flags(command, flags)) return 2;
  try {
    return run(command, flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patchdb_client: %s\n", e.what());
    return 1;
  }
}
