#include "src/exec/fleet_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace androne {

FleetExecutor::FleetExecutor(FleetOptions options)
    : options_(std::move(options)) {}

uint64_t FleetExecutor::WorldSeed(uint64_t base_seed, int index) {
  // SplitMix64 decorrelates adjacent indices; the +1 keeps index 0 from
  // collapsing onto the raw base seed.
  return SplitMix64(base_seed + static_cast<uint64_t>(index) + 1);
}

FleetReport FleetExecutor::Run(int num_worlds, const WorldFn& fn) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const bool budgeted = options_.wall_budget_ms > 0;
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(budgeted ? options_.wall_budget_ms : 0);

  FleetReport report;
  report.worlds.resize(static_cast<size_t>(num_worlds));
  std::atomic<bool> cancel{false};
  std::atomic<int> retried{0};

  auto run_world = [this, &fn, &report, &cancel, &retried, budgeted,
                    deadline](int i) {
    WorldContext ctx;
    ctx.index = i;
    ctx.seed = WorldSeed(options_.base_seed, i);
    ctx.cancelled = &cancel;
    WorldResult& out = report.worlds[static_cast<size_t>(i)];
    if (budgeted && std::chrono::steady_clock::now() >= deadline) {
      cancel.store(true, std::memory_order_relaxed);
    }
    if (ctx.ShouldCancel()) {
      // Budget already spent: record the skip without running the world.
      out.index = i;
      out.seed = ctx.seed;
      out.completed = false;
      out.skipped = true;
      return;
    }
    out = fn(ctx);
    if (out.infra_failure && !ctx.ShouldCancel()) {
      // Infrastructure failures (the world never came up — boot, deploy
      // machinery, planner) are not scenario outcomes: give the world
      // one more chance after a short wall-clock breather. Worlds are
      // deterministic in (config, seed), so a retry that succeeds
      // produces exactly the result the first attempt should have.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      retried.fetch_add(1, std::memory_order_relaxed);
      out = fn(ctx);
    }
    out.index = i;
    // Worlds that report their own seed (scenario sweeps override the
    // index-derived default) keep it; plain worlds get the context seed.
    if (out.seed == 0) {
      out.seed = ctx.seed;
    }
  };

  // Each worker claims the next unclaimed world index until none are left,
  // so worlds start in index order and a worker that finishes early simply
  // claims more. Every result lands in its own index slot.
  std::atomic<int> next{0};
  {
    // jthreads join when the block exits, on every path.
    std::vector<std::jthread> workers;
    const int threads = std::max(1, options_.threads);
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&next, num_worlds, &run_world] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= num_worlds) {
            return;
          }
          run_world(i);
        }
      });
    }
  }

  // Merge in world-index order: the metrics fold and the fleet digest are
  // then independent of which worker finished which world first.
  uint64_t digest = kFnv1a64Offset;
  for (const WorldResult& world : report.worlds) {
    if (!world.completed) {
      ++report.cancelled;
      if (world.skipped) {
        ++report.skipped;
      }
      continue;
    }
    ++report.completed;
    report.events_run += world.events_run;
    if (world.provision.cloned) {
      ++report.worlds_cloned;
    }
    if (world.provision.built_template) {
      ++report.templates_built;
    }
    report.boot_seconds += static_cast<double>(world.provision.boot_ns) * 1e-9;
    report.fly_seconds += static_cast<double>(world.provision.fly_ns) * 1e-9;
    report.metrics.Merge(world.metrics);
    digest = Fnv1a64Value(world.index, digest);
    digest = Fnv1a64Value(world.digest, digest);
  }
  report.fleet_digest = digest;
  report.retried = retried.load(std::memory_order_relaxed);
  if (report.retried > 0) {
    // Like worlds_skipped below: a metrics snapshot alone must reveal that
    // some worlds needed a second attempt.
    report.metrics.counters["fleet.worlds_retried"] +=
        static_cast<double>(report.retried);
  }
  if (report.skipped > 0) {
    // Surface the skip count inside the merged metrics too, so a snapshot
    // alone (without the report struct) still reveals silently-dropped
    // worlds.
    report.metrics.counters["fleet.worlds_skipped"] +=
        static_cast<double>(report.skipped);
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return report;
}

}  // namespace androne
