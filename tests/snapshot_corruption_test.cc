// Restore hardening (DESIGN.md §13): checkpoint bytes are untrusted input.
// A truncated, bit-flipped or count-inflated blob must come back as an
// error Status — or restore cleanly — and never crash, over-allocate or
// leave a component that indexes out of bounds. Runs on a mid-flight
// AnDroneSystem blob and on a fleet-world checkpoint with a fixed seed and
// a fixed mutation budget, so it also rides the sanitizer build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/fleet_world.h"
#include "src/exec/world_template.h"
#include "src/hw/sensor_faults.h"
#include "src/obs/trace.h"
#include "src/snapshot/checkpoint.h"
#include "src/util/rng.h"
#include "tests/snapshot_fixtures.h"

namespace androne {
namespace {

using namespace snapshot_fixtures;

constexpr uint64_t kMutationSeed = 0xc0'22'1d'7e;

// Restores |blob| into a freshly built structure-only system the way a
// recovering world does: state sections, clock rewind, timer re-arm, and
// no trailing bytes.
Status RestoreSystemBlob(const std::string& blob) {
  TestSystem target;
  RETURN_IF_ERROR(BootSystem(target, /*warmup=*/false));
  SnapshotReader r(blob);
  RETURN_IF_ERROR(target.system->RestoreState(r));
  target.clock.ResetForRestore(target.clock.now(), target.clock.events_run());
  TimerRearmer rearmer;
  target.system->RegisterTimers(rearmer);
  RETURN_IF_ERROR(rearmer.Replay(r));
  if (r.remaining() != 0) {
    return InvalidArgumentError("trailing bytes after the timer table");
  }
  return OkStatus();
}

std::string MidFlightSystemBlob() {
  TestSystem ts;
  EXPECT_TRUE(BootSystem(ts).ok());
  EXPECT_TRUE(FlyMidway(ts).ok());
  return SaveSystemBlob(*ts.system);
}

// Offset of the first byte after section |tag| (tags are 4 ASCII bytes).
size_t AfterSection(const std::string& blob, const char* tag) {
  size_t at = blob.find(std::string(tag, 4));
  EXPECT_NE(at, std::string::npos) << "no section " << tag;
  return at == std::string::npos ? 0 : at + 4;
}

void PutU64(std::string& blob, size_t offset, uint64_t v) {
  for (size_t i = 0; i < 8 && offset + i < blob.size(); ++i) {
    blob[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// A fleet world whose checkpoints restore cheaply: every verification
// build clones from one shared template.
struct FleetFixture {
  WorldTemplateCache cache;
  FleetWorldConfig config;
  std::string blob;

  explicit FleetFixture(uint32_t trace_categories = 0) {
    config = WorldConfig();
    config.trace_categories = trace_categories;
    config.templates = &cache;
    CheckpointStore store;
    FleetWorldConfig capture = config;
    capture.checkpoint_sink = &store;
    WorldResult result = RunFleetWorld(capture, WorldCtx());
    EXPECT_FALSE(result.infra_failure);
    StatusOr<std::string> latest = store.Latest();
    EXPECT_TRUE(latest.ok());
    if (latest.ok()) {
      blob = *latest;
    }
  }

  Status Verify(const std::string& bytes) const {
    return VerifyFleetCheckpoint(config, WorldCtx(), bytes);
  }
};

// --- Targeted hardening ---------------------------------------------------

TEST(SnapshotHardeningTest, HugeMissionEventCountIsAnError) {
  std::string blob = MidFlightSystemBlob();
  ASSERT_TRUE(RestoreSystemBlob(blob).ok());
  // MISN: phase u32, stop u64, deadline i64, three bools, then the count.
  PutU64(blob, AfterSection(blob, "MISN") + 4 + 8 + 8 + 3, uint64_t{1} << 62);
  Status status = RestoreSystemBlob(blob);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("length"), std::string::npos) << status;
}

// Each timer re-arms at most once: a table that names the 400 Hz loop twice
// would otherwise arm it twice and run it at 800 Hz.
TEST(SnapshotHardeningTest, DuplicateTimerKeyIsAnError) {
  std::string blob = MidFlightSystemBlob();
  const auto table = TimerTable(blob);
  const auto fast = std::find_if(table.begin(), table.end(), [](const auto& e) {
    return e.first == "fc.fast";
  });
  ASSERT_NE(fast, table.end());
  SnapshotWriter twice;
  twice.Str(fast->first);
  twice.I64(fast->second);
  PutU64(blob, blob.rfind("TIMR") + 4, table.size() + 1);
  blob += twice.bytes();
  Status status = RestoreSystemBlob(blob);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fc.fast"), std::string::npos) << status;
}

TEST(SnapshotHardeningTest, OutOfRangeEnumIsAnError) {
  std::string blob = MidFlightSystemBlob();
  // SAFE opens with the supervisor's stage.
  const size_t stage = AfterSection(blob, "SAFE");
  blob[stage] = 77;
  Status status = RestoreSystemBlob(blob);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("enum"), std::string::npos) << status;
}

// A system booted with a sensor-fault plan saves the injector's section
// behind a presence byte; a restoring world must match it either way.
TEST(SnapshotHardeningTest, SensorFaultPresenceMustMatchBothWays) {
  SensorFaultPlan plan;
  TestSystem plain;
  ASSERT_TRUE(BootSystem(plain).ok());
  TestSystem faulted;
  ASSERT_TRUE(BootSystem(faulted, /*warmup=*/true, &plan).ok());

  auto restore_into = [&plan](bool faults, const std::string& blob) {
    TestSystem target;
    EXPECT_TRUE(
        BootSystem(target, /*warmup=*/false, faults ? &plan : nullptr).ok());
    SnapshotReader r(blob);
    return target.system->RestoreState(r);
  };
  const std::string without = SaveSystemBlob(*plain.system);
  const std::string with = SaveSystemBlob(*faulted.system);
  EXPECT_TRUE(restore_into(false, without).ok());
  EXPECT_TRUE(restore_into(true, with).ok());
  for (const Status& status :
       {restore_into(true, without), restore_into(false, with)}) {
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("sensor-fault presence"),
              std::string::npos)
        << status;
  }
}

TEST(SnapshotHardeningTest, OutOfRangeTraceHeadIsAnError) {
  FleetFixture fleet(kTraceAll);
  ASSERT_TRUE(fleet.Verify(fleet.blob).ok());
  // TRCE: categories u32, capacity u64, recorded u64, then the ring head.
  std::string blob = fleet.blob;
  PutU64(blob, AfterSection(blob, "TRCE") + 4 + 8 + 8,
         fleet.config.trace_capacity + 7);
  Status status = fleet.Verify(blob);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("head"), std::string::npos) << status;
}

// --- Seeded corruption ----------------------------------------------------

// Every strict prefix at |stride| must be rejected.
template <class RestoreFn>
void ExpectPrefixesRejected(const std::string& blob, size_t stride,
                            RestoreFn restore) {
  for (size_t len = 0; len < blob.size(); len += stride) {
    EXPECT_FALSE(restore(blob.substr(0, len)).ok())
        << "a " << len << "-byte prefix of " << blob.size() << " restored";
  }
}

// Seeded single-bit flips and 8-byte count overwrites: each must yield a
// Status (ok or not) without crashing. The counts at |count_offsets| are
// overwritten first; the remaining overwrites land at random offsets.
template <class RestoreFn>
void MutateAndRestore(const std::string& blob,
                      const std::vector<size_t>& count_offsets, int flips,
                      int overwrites, RestoreFn restore) {
  Rng rng(kMutationSeed);
  int rejected = 0;
  for (int i = 0; i < flips; ++i) {
    std::string mutated = blob;
    const size_t at = rng.NextU64Below(mutated.size());
    mutated[at] = static_cast<char>(mutated[at] ^ (1 << rng.NextU64Below(8)));
    rejected += restore(mutated).ok() ? 0 : 1;
  }
  const uint64_t kHuge[] = {uint64_t{1} << 62, ~uint64_t{0},
                            uint64_t{1} << 32, blob.size()};
  for (int i = 0; i < overwrites; ++i) {
    std::string mutated = blob;
    const size_t at =
        i < static_cast<int>(count_offsets.size())
            ? count_offsets[static_cast<size_t>(i)]
            : rng.NextU64Below(mutated.size());
    PutU64(mutated, at, kHuge[rng.NextU64Below(4)]);
    rejected += restore(mutated).ok() ? 0 : 1;
  }
  // Most mutations hit structure the restore checks; none may crash.
  EXPECT_GT(rejected, 0);
}

TEST(SnapshotCorruptionTest, MidFlightSystemBlob) {
  const std::string blob = MidFlightSystemBlob();
  ASSERT_TRUE(RestoreSystemBlob(blob).ok());
  ExpectPrefixesRejected(blob, 509, RestoreSystemBlob);
  const std::vector<size_t> counts = {
      AfterSection(blob, "MISN") + 4 + 8 + 8 + 3,  // Mission events.
      AfterSection(blob, "FLOG"),                  // Flight log entries.
      AfterSection(blob, "DEDU"),                  // Dedup window.
      AfterSection(blob, "TIMR"),                  // Timer table.
  };
  MutateAndRestore(blob, counts, /*flips=*/120, /*overwrites=*/40,
                   RestoreSystemBlob);
}

TEST(SnapshotCorruptionTest, FleetCheckpoint) {
  FleetFixture fleet;
  ASSERT_TRUE(fleet.Verify(fleet.blob).ok());
  auto restore = [&fleet](const std::string& bytes) {
    return fleet.Verify(bytes);
  };
  ExpectPrefixesRejected(fleet.blob, 2503, restore);
  // CHAN: rng (four u64 words), five u64 counters, then the latency
  // histogram's bucket count, which a restore must match exactly.
  const size_t bucket_count = AfterSection(fleet.blob, "CHAN") + 32 + 40;
  std::string inflated = fleet.blob;
  PutU64(inflated, bucket_count, uint64_t{1} << 62);
  Status status = restore(inflated);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("histogram bucket count"), std::string::npos)
      << status;
  const std::vector<size_t> counts = {
      bucket_count,
      AfterSection(fleet.blob, "FLOG"),  // Flight log entries.
      AfterSection(fleet.blob, "VDC "),  // Active-tenant string length.
      AfterSection(fleet.blob, "TIMR"),  // Timer table.
  };
  MutateAndRestore(fleet.blob, counts, /*flips=*/120, /*overwrites=*/40,
                   restore);
}

}  // namespace
}  // namespace androne
