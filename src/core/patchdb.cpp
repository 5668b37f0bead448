#include "core/patchdb.h"

#include <span>
#include <utility>

namespace patchdb::core {

PatchDb build_patchdb(const BuildOptions& options) {
  return build_patchdb(options, BuildHooks{});
}

PatchDb build_patchdb(const BuildOptions& options, const BuildHooks& hooks) {
  PatchDb db;

  // Stage 1: simulate the universe and run the NVD collection pipeline.
  corpus::World world = corpus::build_world(options.world);
  db.crawl_stats = world.crawl_stats;

  // Stage 2: wild augmentation via nearest link + oracle verification.
  // The seeds point into world.nvd_security, which moves into db after
  // the rounds; a vector move keeps its buffer, so they stay valid.
  std::vector<const corpus::CommitRecord*> seed;
  seed.reserve(world.nvd_security.size());
  for (const corpus::CommitRecord& r : world.nvd_security) seed.push_back(&r);

  AugmentationLoop loop(std::move(seed), world.oracle);
  if (hooks.before_rounds) hooks.before_rounds(loop, world);
  std::vector<const corpus::CommitRecord*> pool;
  pool.reserve(world.wild.size());
  for (const corpus::CommitRecord& r : world.wild) pool.push_back(&r);
  loop.set_pool(std::move(pool));
  if (hooks.after_round) loop.set_round_callback(hooks.after_round);
  db.rounds = loop.run(options.augment);
  db.verification_effort = world.oracle.effort();
  db.nvd_security = std::move(world.nvd_security);

  // The wild finds and the rejected candidates point into world.wild,
  // which is dropped after this: move them out instead of copying.
  const auto move_out = [&world](std::span<const corpus::CommitRecord* const> records,
                                 std::vector<corpus::CommitRecord>& into) {
    into.reserve(records.size());
    for (const corpus::CommitRecord* r : records) {
      into.push_back(std::move(world.wild[static_cast<std::size_t>(r - world.wild.data())]));
    }
  };
  move_out(loop.wild_security(), db.wild_security);
  move_out(loop.nonsecurity(), db.nonsecurity);
  db.features = loop.take_features();

  // Stage 3: synthetic oversampling from the natural patches that carry
  // snapshots (NVD side by default; wild side when the world kept them).
  if (options.run_synthesis) {
    db.synthetic = synth::synthesize_all(db.nvd_security, options.synthesis,
                                         options.world.seed ^ 0x5f5f5f5fULL);
    const auto wild_synth = synth::synthesize_all(
        db.wild_security, options.synthesis, options.world.seed ^ 0x3c3c3c3cULL);
    db.synthetic.insert(db.synthetic.end(), wild_synth.begin(), wild_synth.end());
  }

  return db;
}

}  // namespace patchdb::core
