// Boot-once/fork-many world templates (DESIGN.md §14).
//
// Cold-booting a fleet world spends ~96% of its startup inside the 2 s
// sensor/estimator warmup, and every one of N worlds used to pay it. A
// WorldTemplate amortizes that: the first world of a config family
// cold-boots once, captures a checkpoint at the post-boot/pre-mission
// boundary, and publishes it; every later world of the family "clones" by
// booting the deterministic structure *without* warmup and overlaying the
// template blob, then re-seeds its per-world RNG streams at the boundary.
//
// Correctness rests on two invariants:
//   1. Every member world boots with one global canonical boot seed (a
//      run-stable constant, NOT the per-world seed), so post-boot state is
//      byte-identical whether it was reached by warmup or by restore.
//   2. AnDroneSystem::ReseedStreams(world_seed) runs at the boundary on
//      *both* paths, so per-world divergence (waypoints, link noise,
//      mission-time sensor noise) starts at exactly the same point.
// A cloned world is therefore digest-identical to a cold-booted world at
// the same seed — asserted in tests/exec_test.cc and gated in ci.sh.
//
// The cache key is TemplateFingerprint (fleet_world.h), derived from the
// same tagged walk over FleetWorldConfig as ConfigFingerprint: it folds
// only the fields tagged boot — memory budget, trace categories and
// capacity, sensor-fault presence and the windows that can touch the
// warmup horizon. World fields (tenants, dwell, net faults, crash
// schedule, batching, ...) act after the boundary and do not split the
// cache, which is what lets a 1000-scenario campaign share a handful of
// templates. Runtime-only fields (trace, templates, record_into,
// replay_from, fork_blob, fork_reseed, checkpoint_sink, checkpoint,
// restore) feed neither fingerprint.
#ifndef SRC_EXEC_WORLD_TEMPLATE_H_
#define SRC_EXEC_WORLD_TEMPLATE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/util/time.h"

namespace androne {

struct WorldTemplate {
  uint64_t fingerprint = 0;  // TemplateFingerprint of the config family.
  // Snapshot at the post-boot boundary; its header carries the canonical
  // boot seed and the capture time, its body the executed-event count.
  std::string blob;
  uint64_t boot_ns = 0;      // Wall cost of the cold boot that built this.
};

// Thread-safe template store shared by every world of a fleet (and, via
// CampaignRunner, every scenario of a campaign). The build protocol is
// blocking: the first caller per fingerprint is elected builder and cold
// boots; concurrent callers for the same fingerprint wait for the publish
// instead of booting redundantly. That makes hit/miss totals deterministic
// — exactly one miss per fingerprint per cache — at any thread count.
class WorldTemplateCache {
 public:
  // Returns the published template for |fingerprint|, or nullptr with
  // *builder = true when this caller was elected to build it. A builder
  // MUST later call Publish() or AbandonBuild(fingerprint) — waiters block
  // until one of the two happens.
  std::shared_ptr<const WorldTemplate> Acquire(uint64_t fingerprint,
                                               bool* builder);

  // Publishes a built template and wakes waiters.
  void Publish(std::shared_ptr<const WorldTemplate> tpl);

  // Abandons an elected build (cold boot failed): the entry is erased and
  // one waiter is re-elected builder on its next Acquire loop.
  void AbandonBuild(uint64_t fingerprint);

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;  // Published templates.

 private:
  struct Entry {
    std::shared_ptr<const WorldTemplate> tpl;  // null while building
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace androne

#endif  // SRC_EXEC_WORLD_TEMPLATE_H_
