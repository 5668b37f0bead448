// Extension experiment: vulnerable code clone detection (Sec. V-A.1).
//
// "The verified security patches can be used to generate signatures for
// detecting more vulnerabilities ... more security patch instances
// enable more vulnerability signatures for matching and thus enhances
// the detection capability."
//
// Protocol: build signatures from the pre-images of a PatchDB security
// set, then scan a target codebase seeded with (a) renamed vulnerable
// clones, (b) already-patched versions of the same functions, and (c)
// unrelated files. Report detection recall on (a) and false alarms on
// (b)+(c), as a function of how many patches feed the signature
// database — the paper's "more patches, more capability" claim.
#include <cstdio>

#include "bench_common.h"
#include "core/clone.h"
#include "corpus/world.h"
#include "util/rng.h"

namespace {
using namespace patchdb;
}

int main(int argc, char** argv) {
  bench::Session session(
      "Extension — vulnerable clone detection (Sec. V-A.1)", argc, argv);
  const double scale = session.scale();

  // Security patches with snapshots: the BEFORE version is the
  // vulnerable code we will re-plant (renamed) in the target codebase.
  corpus::WorldConfig config;
  config.repos = 30;
  config.nvd_security = bench::scaled(600, scale);
  config.wild_pool = 10;
  config.keep_nvd_snapshots = true;
  config.seed = 717171;
  const corpus::World world = corpus::build_world(config);

  // Target codebase: for every 4th patch plant its vulnerable version
  // (a downstream copy that never took the fix), for every 4th+1 plant
  // the patched version; fill with unrelated files. Rename-invariance is
  // covered by the unit tests; here the planted copies are vendored
  // verbatim, the most common downstream situation.
  util::Rng rng(727272);
  struct TargetFile {
    std::vector<std::string> lines;
    bool vulnerable = false;    // contains a planted vulnerable clone
    std::string origin_commit;  // the patch this file derives from ("" = unrelated)
  };
  std::vector<TargetFile> codebase;
  for (std::size_t i = 0; i < world.nvd_security.size(); ++i) {
    const corpus::CommitRecord& r = world.nvd_security[i];
    if (r.snapshots.empty()) continue;
    if (i % 4 == 0) {
      codebase.push_back({r.snapshots.front().before, true, r.patch.commit});
    } else if (i % 4 == 1) {
      codebase.push_back({r.snapshots.front().after, false, r.patch.commit});
    }
  }
  const std::size_t unrelated = codebase.size();
  for (std::size_t i = 0; i < unrelated; ++i) {
    const corpus::FunctionContext ctx = corpus::draw_context(rng);
    codebase.push_back(
        {corpus::make_function(ctx, {corpus::filler_statements(rng, ctx, 8)}),
         false,
         ""});
  }

  session.add_items(codebase.size());
  std::size_t total_vulnerable = 0;
  for (const TargetFile& f : codebase) total_vulnerable += f.vulnerable;
  std::printf("target codebase: %zu files (%zu with planted vulnerable clones)\n\n",
              codebase.size(), total_vulnerable);

  util::Table table("Detection vs signature-database size");
  table.set_header({"Patches used", "Signatures", "Clones found", "Recall",
                    "Abstraction-blind", "Cross false alarms"});

  for (const double fraction : {0.25, 0.5, 1.0}) {
    // min_lines = 4: short pre-images (a bare guard + call) are generic
    // code shapes that alias across unrelated files; discriminative
    // signatures need a wider window, the same precision/recall knob
    // VUDDY-style matchers expose.
    core::CloneScanner scanner(/*min_lines=*/4);
    const std::size_t n_patches = static_cast<std::size_t>(
        fraction * static_cast<double>(world.nvd_security.size()));
    for (std::size_t i = 0; i < n_patches; ++i) {
      scanner.add_patch(world.nvd_security[i].patch);
    }

    std::size_t found = 0;
    std::size_t blind_files = 0;   // patched file still matches its own
                                   // signature: the fix is invisible to the
                                   // literal-abstracted window (e.g. a
                                   // buffer-size-only change)
    std::size_t cross_alarm_files = 0;
    for (const TargetFile& file : codebase) {
      const auto matches = scanner.scan(file.lines);
      bool hit_origin = false;
      bool hit_other = false;
      for (const core::CloneMatch& m : matches) {
        (m.origin == file.origin_commit ? hit_origin : hit_other) = true;
      }
      if (file.vulnerable) {
        found += hit_origin;
      } else {
        blind_files += hit_origin;
        cross_alarm_files += (!hit_origin && hit_other);
      }
    }
    table.add_row(
        {std::to_string(n_patches), std::to_string(scanner.signature_count()),
         std::to_string(found) + "/" + std::to_string(total_vulnerable),
         util::format_percent(total_vulnerable == 0
                                  ? 0.0
                                  : static_cast<double>(found) /
                                        static_cast<double>(total_vulnerable), 0),
         std::to_string(blind_files), std::to_string(cross_alarm_files)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("  notes: recall grows with the signature database (the paper's\n"
              "  'more patches, more capability'); it tops out below 100%%\n"
              "  because pure-addition patches (new checks) leave no removable\n"
              "  pre-image. 'Abstraction-blind' counts patched files that STILL\n"
              "  match their own signature — fixes that only change a literal\n"
              "  (e.g. a buffer size) vanish under token abstraction, the known\n"
              "  VUDDY-style blind spot. Cross false alarms are files matching\n"
              "  someone else's signature.\n");
  return 0;
}
