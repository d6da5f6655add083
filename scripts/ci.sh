#!/usr/bin/env bash
# Tier-1 CI: check that every src/ header has a production includer and
# that no src/ code calls a libm transcendental outside util/detmath, build
# + test twice (plain, then sanitizers) with the six examples and a short
# perfbench replay run after the plain tests, then refresh the robustness
# benchmark record.
#
#   scripts/ci.sh                       # full run
#   SKIP_ASAN=1 scripts/ci.sh          # plain tests + benches only
#   scripts/ci.sh --repeat-determinism # also re-run the determinism
#                                      # harness and the trace, snapshot
#                                      # and control-plane goldens N times
#                                      # (default 5;
#                                      # ANDRONE_DETERMINISM_REPEATS=N)
#
# Produces BENCH_fault_sweep.json at the repo root: the link fault sweep
# (bench/fault_sweep) and the sensor fault sweep (bench/sensor_fault_sweep)
# merged into one document. Fragments go to BENCH_*.json.tmp (gitignored);
# the merged file is the committed record. Also refreshes
# BENCH_fleet_scale.json (bench/fleet_scale): fleet-executor throughput,
# the thread-count-invariance digest check, and the boot-once/fork-many
# cloning gates (grep "digests_match"/"clone_digest_match": true and
# "clone_speedup_ge_3": true — cloned worlds must match cold-booted ones
# bit for bit and cut per-world startup by at least 3x); BENCH_datapath.json
# (bench/datapath_throughput): hot-loop throughput with unbatched and
# batched telemetry plus the flight-digest-invariance guard (batching must
# not change what the drone flew); BENCH_campaign.json
# (bench/campaign_sweep): the full builtin chaos campaign with report
# determinism across repeats and thread counts; and BENCH_recovery.json
# (bench/recovery_sweep): crash/restore equivalence — a crashed world
# restored from its latest checkpoint must replay bit-identical to the
# uninterrupted run (the grep gate is "digest_match": true); and
# BENCH_replay.json (bench/replay_sweep): record-once replay — a world
# replayed from its log must land on the recording's exact bytes
# ("digest_match": true) at better than twice resim speed in the median of
# 15 interleaved resim/replay pairs, for the slowest family
# ("replay_speedup_ge_2": true); and BENCH_control_plane.json
# (bench/control_plane_sweep): the multi-tenant serving path at 1/2/8
# router threads with report-byte determinism ("deterministic": true) and
# the admission budget audit ("admission_violations": 0). A control-plane
# smoke rides both the plain and ASan builds next to the campaign smoke.
# A ~74-scenario campaign smoke also gates
# both the plain and sanitizer builds: every failure must land in an
# expected bucket (unexpected == 0), and the recovery-equivalence and
# replay-equivalence tests run on the plain, ASan/UBSan, and TSan builds.
# Sanitizer reports are fatal (-fno-sanitize-recover=all), and the
# ASan/UBSan leg adds float-cast-overflow, which "undefined" leaves out.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

REPEAT_DETERMINISM=0
for arg in "$@"; do
  case "$arg" in
    --repeat-determinism) REPEAT_DETERMINISM=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# A header that only tests include is test scaffolding, not product: every
# tracked src/ header needs an includer in src/, bench/, perfbench/ or
# examples/ other than its own .cc.
echo "=== check: every src/ header has a production includer ==="
orphans=""
for header in $(git ls-files 'src/*.h'); do
  if ! git grep -lF "#include \"$header\"" -- src bench perfbench examples \
      | grep -vxF "${header%.h}.cc" >/dev/null; then
    orphans+="  $header"$'\n'
  fi
done
if [[ -n "$orphans" ]]; then
  printf 'FAIL: src/ headers no production code includes:\n%s' "$orphans" >&2
  exit 1
fi

# Digested numerics must not depend on the libm version or target: every
# transcendental in src/ goes through src/util/detmath (DESIGN.md §11).
echo "=== check: no libm transcendental calls in src/ outside util/detmath ==="
libm_calls="$(git grep -nE \
    'std::(sin|cos|tan|asin|acos|atan|atan2|exp|exp2|expm1|log|log10|log2|log1p|pow|hypot|cbrt|sinh|cosh|tanh)[[:space:]]*\(' \
    -- src ':!src/util/detmath.*' || true)"
if [[ -n "$libm_calls" ]]; then
  printf 'FAIL: libm calls in src/ (route them through util/detmath):\n%s\n' \
    "$libm_calls" >&2
  exit 1
fi

echo "=== tier-1: plain build ==="
cmake -S . -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Each example narrates a whole mission through the public API (together
# about 0.4 s); any non-zero exit fails CI.
echo "=== examples: plain build ==="
for example in quickstart survey_mission multi_tenant_flight \
    geofence_patrol direct_access_cli chaos_campaign; do
  if ! ./build/examples/"$example" >/dev/null; then
    echo "FAIL: example $example exited non-zero" >&2
    exit 1
  fi
done

# The committed manifests are the canonical dumps of the builtin campaigns:
# each must match what campaign_sweep dumps today, byte for byte.
echo "=== check: committed campaign manifests match their dumps ==="
if ! ./build/bench/campaign_sweep --dump-manifest - \
    | cmp -s - perfbench/builtin_campaign.xml; then
  echo "FAIL: perfbench/builtin_campaign.xml differs from" \
       "campaign_sweep --dump-manifest -" >&2
  exit 1
fi
if ! ./build/bench/campaign_sweep --smoke --dump-manifest - \
    | cmp -s - examples/campaign_smoke.xml; then
  echo "FAIL: examples/campaign_smoke.xml differs from" \
       "campaign_sweep --smoke --dump-manifest - (regenerate it with" \
       "--smoke --dump-manifest examples/campaign_smoke.xml)" >&2
  exit 1
fi

# The benchmark builds src/ on its own (perfbench/, Release, into
# .bench_build/). One short replay run fails on a src/ change that breaks
# that build or on a replayed pool world that misses its recording's
# digests; the exit status is non-zero on either.
echo "=== perfbench smoke: replay workload ==="
if ! python3 perfbench/run.py --workload replay --seed 1 --seconds 2 \
    --trace 0; then
  echo "FAIL: perfbench replay smoke (build, self-test or a replayed world)" >&2
  exit 1
fi

# Chaos campaign smoke: a seeded ~74-scenario sweep of every builtin fault
# family. The binary exits nonzero if the report is nondeterministic or any
# failure lands outside an expected bucket, so the `if !` belt below is
# just a clearer failure message on top of set -e.
echo "=== campaign smoke: plain build ==="
if ! ./build/bench/campaign_sweep --smoke --json BENCH_campaign_smoke.json.tmp; then
  echo "FAIL: campaign smoke hit unexpected failure buckets" >&2
  exit 1
fi
rm -f BENCH_campaign_smoke.json.tmp

# Control-plane smoke: the multi-tenant serving path (order -> plan ->
# admit -> fly -> bill) swept across router thread counts plus a repeat.
# The binary exits nonzero if the merged report text varies, an admission
# budget is overrun, or a terminal order settles other than exactly once.
echo "=== control-plane smoke: plain build ==="
if ! ./build/bench/control_plane_sweep --smoke \
    --json BENCH_control_plane_smoke.json.tmp; then
  echo "FAIL: control-plane smoke (nondeterministic report, admission" \
       "violation, or settlement error)" >&2
  exit 1
fi
rm -f BENCH_control_plane_smoke.json.tmp

if [[ "$REPEAT_DETERMINISM" == "1" ]]; then
  # Nondeterminism is flaky by nature: one green run proves little. Re-run
  # the trace/metrics determinism harness in fresh processes so ASLR and
  # allocator state vary between runs. The snapshot golden rides along: a
  # component Visit that walks an unordered container shows up here as a
  # flaky blob digest. So does the control-plane golden: an ordering leak
  # on the serving path shows up as a flaky report.
  REPEATS="${ANDRONE_DETERMINISM_REPEATS:-5}"
  echo "=== determinism harness: $REPEATS repeated runs ==="
  for i in $(seq 1 "$REPEATS"); do
    ./build/tests/determinism_test --gtest_brief=1
    ./build/tests/trace_golden_test --gtest_brief=1
    ./build/tests/snapshot_golden_test --gtest_brief=1
    ./build/tests/control_plane_golden_test --gtest_brief=1
  done
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  # GCC's "undefined" group leaves out float-cast-overflow (a double out of
  # the target integer's range); the build makes every report fatal.
  echo "=== tier-1: sanitizer build (address,undefined,float-cast-overflow) ==="
  cmake -S . -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANDRONE_SANITIZE=address,undefined,float-cast-overflow >/dev/null
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && ctest --output-on-failure -j "$JOBS")

  # The fleet executor is the one genuinely multi-threaded subsystem: plain
  # worker threads claiming world indices from one atomic counter. Its
  # tests — the executor suite (thread counts 0/1/2/8/16 over the same
  # fleet), the trace/metrics determinism harness, which runs traced
  # worlds on 1/2/8 executor threads, the crash-recovery equivalence
  # suite, whose restore-and-replay must stay bit-identical at any thread
  # count, and the clone-determinism matrix (WorldTemplateTest: a cloned
  # world must be digest-identical to its cold-booted twin, including under
  # the blocking template-builder protocol at 2/8 threads) — also run under
  # TSan (a separate build dir — TSan is incompatible with ASan in one
  # binary). The clone-determinism tests ride inside exec_test and
  # recovery_test, so all three builds (plain ctest, ASan/UBSan ctest,
  # TSan below) exercise them.
  echo "=== exec + determinism + recovery + replay tests: sanitizer build (thread) ==="
  cmake -S . -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DANDRONE_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target exec_test determinism_test \
        trace_golden_test recovery_test replay_test
  ./build-tsan/tests/exec_test
  ./build-tsan/tests/determinism_test
  ./build-tsan/tests/trace_golden_test
  ./build-tsan/tests/recovery_test
  # Replay under TSan: the shared ReplayLogStore (record fleet, replay at
  # 1/2/8 threads) and its cache of log views are the cross-thread
  # surfaces.
  ./build-tsan/tests/replay_test

  # The same campaign smoke under ASan/UBSan: fault windows, triage
  # re-runs, and the manifest loader all exercise pointer-heavy paths.
  echo "=== campaign smoke: sanitizer build ==="
  if ! ./build-asan/bench/campaign_sweep --smoke \
      --json BENCH_campaign_asan.json.tmp; then
    echo "FAIL: sanitized campaign smoke hit unexpected failure buckets" >&2
    exit 1
  fi
  rm -f BENCH_campaign_asan.json.tmp

  # Control-plane smoke under ASan/UBSan: the router/fleet-manager event
  # cascade, the admission drain paths, and the kFleet cohort worlds are
  # pointer-heavy; the TSan thread sweep already ran inside
  # determinism_test above (ControlPlaneReportIsThreadCountInvariant).
  echo "=== control-plane smoke: sanitizer build ==="
  if ! ./build-asan/bench/control_plane_sweep --smoke \
      --json BENCH_control_plane_asan.json.tmp; then
    echo "FAIL: sanitized control-plane smoke" >&2
    exit 1
  fi
  rm -f BENCH_control_plane_asan.json.tmp
fi

echo "=== benches: fault sweeps ==="
./build/bench/fault_sweep --json BENCH_link.json.tmp
./build/bench/sensor_fault_sweep --json BENCH_sensor.json.tmp

{
  printf '{\n"benches": [\n'
  cat BENCH_link.json.tmp
  printf ',\n'
  cat BENCH_sensor.json.tmp
  printf ']\n}\n'
} > BENCH_fault_sweep.json
rm -f BENCH_link.json.tmp BENCH_sensor.json.tmp
echo "wrote BENCH_fault_sweep.json"

echo "=== bench: fleet scale ==="
./build/bench/fleet_scale --json BENCH_fleet_scale.json \
    --metrics BENCH_fleet_metrics.txt
echo "wrote BENCH_fleet_metrics.txt (merged fleet metric snapshot)"
# Determinism gates: the fleet digest must be thread-count invariant AND
# the templated (boot-once/fork-many) fleet must match the cold-booted
# fleet bit for bit; the clone path must also actually pay off (>= 3x
# cheaper per-world startup than a cold boot).
if ! grep -q '"digests_match": true' BENCH_fleet_scale.json; then
  echo "FAIL: fleet digest varied across executor thread counts" >&2
  exit 1
fi
if ! grep -q '"clone_digest_match": true' BENCH_fleet_scale.json; then
  echo "FAIL: template-cloned fleet diverged from the cold-booted fleet" >&2
  exit 1
fi
if ! grep -q '"clone_speedup_ge_3": true' BENCH_fleet_scale.json; then
  echo "FAIL: world cloning is under the 3x startup-speedup floor" >&2
  exit 1
fi

echo "=== bench: datapath throughput ==="
./build/bench/datapath_throughput --json BENCH_datapath.json \
    --trace BENCH_datapath_trace.json --metrics BENCH_datapath_metrics.txt
echo "wrote BENCH_datapath_trace.json (chrome://tracing) and" \
     "BENCH_datapath_metrics.txt"
if ! grep -q '"flight_digest_match": true' BENCH_datapath.json; then
  echo "FAIL: telemetry batching changed the flight digest" >&2
  exit 1
fi

echo "=== bench: recovery sweep ==="
./build/bench/recovery_sweep --json BENCH_recovery.json
if ! grep -q '"digest_match": true' BENCH_recovery.json; then
  echo "FAIL: a crashed-and-recovered world diverged from its" \
       "uninterrupted twin" >&2
  exit 1
fi
echo "wrote BENCH_recovery.json"

echo "=== bench: replay sweep ==="
./build/bench/replay_sweep --json BENCH_replay.json
if ! grep -q '"digest_match": true' BENCH_replay.json; then
  echo "FAIL: a replayed world diverged from its recording run" >&2
  exit 1
fi
if ! grep -q '"replay_speedup_ge_2": true' BENCH_replay.json; then
  echo "FAIL: replay is under the 2x resim-speedup floor" >&2
  exit 1
fi
echo "wrote BENCH_replay.json"

echo "=== bench: control plane (full sweep) ==="
./build/bench/control_plane_sweep --json BENCH_control_plane.json
if ! grep -q '"deterministic": true' BENCH_control_plane.json; then
  echo "FAIL: control-plane report varied across repeats/thread counts" >&2
  exit 1
fi
if ! grep -q '"admission_violations": 0' BENCH_control_plane.json; then
  echo "FAIL: an admission decision overran a board's memory budget" >&2
  exit 1
fi
echo "wrote BENCH_control_plane.json"

echo "=== bench: chaos campaign (full sweep) ==="
./build/bench/campaign_sweep --json BENCH_campaign.json
if ! grep -q '"unexpected": 0' BENCH_campaign.json; then
  echo "FAIL: full campaign hit unexpected failure buckets" >&2
  exit 1
fi
if ! grep -q '"deterministic": true' BENCH_campaign.json; then
  echo "FAIL: campaign report varied across repeats/thread counts" >&2
  exit 1
fi
echo "wrote BENCH_campaign.json"

echo "CI OK"
