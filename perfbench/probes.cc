// The layer sweep: probes that time one module's public calls on inputs
// drawn from the seed and check their outputs, and differential passes
// that take an end-to-end path apart (bare SITL vs full world, record vs
// replay, serial vs parallel campaign, Serve vs its shards). Every traced
// run performs the same fixed-size sweep, so its numbers compare across
// workloads and commits.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/core/drone.h"
#include "src/exec/fleet_executor.h"
#include "src/exec/world_template.h"
#include "src/flight/estimator.h"
#include "src/flight/quad_physics.h"
#include "src/flight/sitl.h"
#include "src/hw/motors.h"
#include "src/hw/sensors.h"
#include "src/obs/metrics.h"
#include "src/replay/replay_log.h"
#include "src/scenario/campaign.h"
#include "src/snapshot/snapshot.h"
#include "src/util/geo.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"

namespace androne::perfbench {
namespace {

const GeoPoint kBase{43.6084298, -85.8110359, 0};
constexpr int kProbeReps = 3;
constexpr double kFastLoopHz = 400;

// The sweep's shared state: the run it reports into and the span every
// probe hangs under.
struct Sweep {
  const BenchOptions& options;
  WorkloadRun& run;
  int root = -1;

  void Fail(std::string what) { run.problems.push_back(std::move(what)); }
  void Layer(std::string name, double value, std::string unit) {
    run.layers.Add(std::move(name), value, std::move(unit));
  }
  // Runs |body| kProbeReps times, each in a span under the root, and
  // returns the median of what it returns (ns per unit of work).
  double Median3(const char* name, const std::function<double(int rep)>& body) {
    std::vector<double> values;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      const int id = run.spans.Begin(name, root, rep);
      values.push_back(body(rep));
      run.spans.End(id);
    }
    return Median(values);
  }
  uint64_t Seed(uint64_t salt) const { return SplitMix64(options.seed ^ salt); }
};

double NsPer(int64_t start_ns, double units) {
  return static_cast<double>(NowNs() - start_ns) / units;
}

// ------------------------------------------------------------------ util

void ProbeGaussian(Sweep& s) {
  constexpr int kDraws = 2'000'000;
  bool ok = true;
  const double ns = s.Median3("probe.rng.gaussian", [&](int rep) {
    Rng rng(s.Seed(0x6761 + static_cast<uint64_t>(rep)));
    double sum = 0;
    double sum_sq = 0;
    const int64_t start = NowNs();
    for (int i = 0; i < kDraws; ++i) {
      const double x = rng.Gaussian(0, 1);
      sum += x;
      sum_sq += x * x;
    }
    const double ns_per = NsPer(start, kDraws);
    const double mean = sum / kDraws;
    ok = ok && std::fabs(mean) < 0.01 &&
         std::fabs(sum_sq / kDraws - mean * mean - 1) < 0.01;
    return ns_per;
  });
  if (!ok) {
    s.Fail("rng probe: Gaussian draws lost zero mean or unit variance");
  }
  s.Layer("util.rng.gaussian_ns", ns, "ns");
}

// Dispatch-order check shared by both clock probes: deadlines never run
// backwards, and equal deadlines run in scheduling (FIFO) order. Stamps
// are handed out at scheduling time, so they rise with the clock's own
// sequence numbers.
struct OrderCheck {
  SimTime last_when = -1;
  uint64_t last_stamp = 0;
  bool ok = true;

  void Saw(SimTime when, uint64_t stamp) {
    if (when < last_when || (when == last_when && stamp < last_stamp)) {
      ok = false;
    }
    last_when = when;
    last_stamp = stamp;
  }
};

// World-shaped loop mix: the 400 Hz fast loop plus 50, 10, 4 and 1 Hz
// periodic tasks, each re-arming itself, with seed-drawn phases on the
// fast-loop grid so deadlines tie.
class PeriodicMix {
 public:
  explicit PeriodicMix(uint64_t seed) {
    Rng rng(seed);
    for (size_t task = 0; task < kPeriods.size(); ++task) {
      Arm(task, Micros(2500) * static_cast<int64_t>(rng.NextU64Below(40)));
    }
  }
  SimClock clock;
  OrderCheck order;

 private:
  static constexpr std::array<SimDuration, 5> kPeriods = {
      Micros(2500), Millis(20), Millis(100), Millis(250), Seconds(1)};

  // The closure packs (stamp, task) into one word so it fits the
  // std::function inline buffer, as the simulator's own timers do.
  void Arm(size_t task, SimDuration delay) {
    const uint64_t packed = (++stamp_ << 3) | task;
    clock.ScheduleAfter(delay, [this, packed] {
      order.Saw(clock.now(), packed >> 3);
      Arm(packed & 7, kPeriods[packed & 7]);
    });
  }

  uint64_t stamp_ = 0;
};

// Serve-shaped scatter: one-shot deadlines on a 1 ms grid, each spawning a
// follow-up and sometimes a watchdog that a later event cancels.
class AperiodicScatter {
 public:
  AperiodicScatter(uint64_t seed, uint64_t budget)
      : rng_(seed), budget_(budget) {
    for (int i = 0; i < 4096; ++i) {
      Schedule(Millis(static_cast<int64_t>(rng_.NextU64Below(60'000))), false);
    }
  }
  SimClock clock;
  OrderCheck order;
  bool cancelled_ran = false;

 private:
  void Schedule(SimDuration delay, bool watchdog) {
    if (stamp_ >= budget_) {
      return;
    }
    const uint64_t packed = (++stamp_ << 1) | (watchdog ? 1 : 0);
    cancelled_.push_back(false);
    const EventId id =
        clock.ScheduleAfter(delay, [this, packed] { Run(packed); });
    if (watchdog) {
      watchdogs_.push_back({id, packed >> 1});
    }
  }

  void Run(uint64_t packed) {
    const uint64_t stamp = packed >> 1;
    order.Saw(clock.now(), stamp);
    cancelled_ran = cancelled_ran || cancelled_[stamp - 1];
    if ((packed & 1) != 0) {
      return;  // A watchdog that fired: nothing follows it.
    }
    Schedule(Millis(1 + static_cast<int64_t>(rng_.NextU64Below(5000))), false);
    if (rng_.Bernoulli(0.5)) {
      Schedule(Seconds(10), true);
    }
    if (rng_.Bernoulli(0.5) && !watchdogs_.empty()) {
      const size_t pick = rng_.NextU64Below(watchdogs_.size());
      if (clock.Cancel(watchdogs_[pick].first)) {
        cancelled_[watchdogs_[pick].second - 1] = true;
      }
      watchdogs_[pick] = watchdogs_.back();
      watchdogs_.pop_back();
    }
  }

  Rng rng_;
  uint64_t budget_;
  uint64_t stamp_ = 0;
  std::vector<bool> cancelled_;  // By stamp - 1.
  std::vector<std::pair<EventId, uint64_t>> watchdogs_;
};

void ProbeSimClock(Sweep& s) {
  bool periodic_ok = true;
  const double periodic = s.Median3("probe.sim_clock.periodic", [&](int rep) {
    PeriodicMix mix(s.Seed(0x7065 + static_cast<uint64_t>(rep)));
    const int64_t start = NowNs();
    mix.clock.RunUntil(Seconds(600));
    const double ns = NsPer(start, static_cast<double>(mix.clock.events_run()));
    periodic_ok = periodic_ok && mix.order.ok;
    return ns;
  });
  bool aperiodic_ok = true;
  const double aperiodic = s.Median3("probe.sim_clock.aperiodic", [&](int rep) {
    AperiodicScatter scatter(s.Seed(0x6170 + static_cast<uint64_t>(rep)),
                             300'000);
    const int64_t start = NowNs();
    scatter.clock.RunAll();
    const double ns =
        NsPer(start, static_cast<double>(scatter.clock.events_run()));
    aperiodic_ok = aperiodic_ok && scatter.order.ok && !scatter.cancelled_ran;
    return ns;
  });
  if (!periodic_ok || !aperiodic_ok) {
    s.Fail("sim_clock probe: dispatch broke (time, FIFO) order or ran a "
           "cancelled event");
  }
  s.Layer("util.sim_clock.periodic_ns", periodic, "ns");
  s.Layer("util.sim_clock.aperiodic_ns", aperiodic, "ns");
}

// ------------------------------------------------------------ hw, flight

void ProbeSensorsAndPhysics(Sweep& s) {
  constexpr int kCalls = 1'000'000;
  constexpr ContainerId kCaller = 1;
  bool ok = true;
  const double imu_ns = s.Median3("probe.hw.imu", [&](int rep) {
    Rng rng(s.Seed(0x696d + static_cast<uint64_t>(rep)));
    SimClock clock;
    DroneGroundTruth truth;
    truth.roll_rad = rng.Uniform(-0.2, 0.2);
    truth.pitch_rad = rng.Uniform(-0.2, 0.2);
    truth.yaw_rate_rads = rng.Uniform(-0.5, 0.5);
    Imu imu(&clock, &truth, rng.NextU64());
    ok = ok && imu.Open(kCaller).ok();
    double sum = 0;
    const int64_t start = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      StatusOr<ImuSample> sample = imu.ReadSample(kCaller);
      if (!sample.ok()) {
        ok = false;
        break;
      }
      sum += sample->gyro_rads[0] + sample->accel_mss[2];
    }
    ok = ok && std::isfinite(sum);
    return NsPer(start, kCalls);
  });
  const double physics_ns = s.Median3("probe.flight.physics", [&](int rep) {
    Rng rng(s.Seed(0x7068 + static_cast<uint64_t>(rep)));
    QuadPhysics physics(kBase);
    MotorSet motors;
    std::array<double, kNumMotors> throttles;
    for (double& t : throttles) {
      t = physics.hover_throttle() * rng.Uniform(0.995, 1.01);
    }
    motors.RestoreActuatorState(throttles, /*armed=*/true);
    const int64_t start = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      physics.Step(Micros(2500), motors);
    }
    const double ns = NsPer(start, kCalls);
    const DroneGroundTruth& truth = physics.truth();
    ok = ok && std::isfinite(truth.position.altitude_m) &&
         std::isfinite(truth.roll_rad) && std::isfinite(truth.yaw_rad);
    return ns;
  });
  const double estimator_ns = s.Median3("probe.flight.estimator", [&](int rep) {
    Rng rng(s.Seed(0x6573 + static_cast<uint64_t>(rep)));
    std::vector<ImuSample> samples(4096);
    for (size_t i = 0; i < samples.size(); ++i) {
      samples[i].gyro_rads = {rng.Gaussian(0, 0.01), rng.Gaussian(0, 0.01),
                              rng.Gaussian(0, 0.01)};
      samples[i].accel_mss = {rng.Gaussian(0, 0.05), rng.Gaussian(0, 0.05),
                              -9.80665 + rng.Gaussian(0, 0.05)};
      samples[i].timestamp = Micros(2500) * static_cast<int64_t>(i);
    }
    Estimator estimator(kBase);
    const int64_t start = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      estimator.UpdateImu(samples[static_cast<size_t>(i) & 4095], Micros(2500));
    }
    const double ns = NsPer(start, kCalls);
    const AttitudeEstimate& att = estimator.attitude();
    ok = ok && std::isfinite(att.roll_rad) && std::isfinite(att.yaw_rad);
    return ns;
  });
  if (!ok) {
    s.Fail("hw/flight probes: a read failed or a state went non-finite");
  }
  s.Layer("hw.imu_sample_ns", imu_ns, "ns");
  s.Layer("flight.physics_step_ns", physics_ns, "ns");
  s.Layer("flight.estimator_imu_ns", estimator_ns, "ns");
}

// Bare SitlDrone (physics + sensors + flight controller, no containers,
// Binder, MAVProxy or VPN): take off, fly to a seed-drawn waypoint, hover.
double SitlNsPerTick(Sweep& s) {
  bool ok = true;
  const double ns = s.Median3("diff.sitl", [&](int rep) {
    Rng rng(s.Seed(0x7369 + static_cast<uint64_t>(rep)));
    SimClock clock;
    SitlDrone drone(&clock, kBase, rng.NextU64());
    clock.RunFor(Seconds(2));
    const GeoPoint target = FromNed(
        kBase, NedPoint{rng.Uniform(-120, 120), rng.Uniform(-120, 120), -15});
    const uint64_t loops = drone.controller().fast_loop_count();
    const int64_t start = NowNs();
    drone.SetModeCmd(CopterMode::kGuided);
    drone.ArmCmd();
    drone.TakeoffCmd(15.0);
    const DroneGroundTruth& truth = drone.physics().truth();
    ok = ok && drone.RunUntil(
                   [&] { return truth.position.altitude_m > 14.0; },
                   Seconds(40));
    drone.GotoCmd(target);
    clock.RunFor(Seconds(60));
    const double ticks =
        static_cast<double>(drone.controller().fast_loop_count() - loops);
    return ticks > 0 ? NsPer(start, ticks) : 0;
  });
  if (!ok) {
    s.Fail("sitl pass: the bare stack never reached cruise altitude");
  }
  s.Layer("flight.sitl_ns_per_tick", ns, "ns");
  return ns;
}

// World-shaped differential: the same worlds flown live, recorded, parsed
// and replayed. Live minus replay per tick is the continuous flight plane
// (sensor synthesis, estimator, attitude cascade, physics); live minus bare
// SITL per tick is the AnDrone layers around the flight stack.
void WorldDifferential(Sweep& s, double sitl_ns_per_tick) {
  const WorldPool pool = MakeWorldPool(s.Seed(0x6466), 6);
  const int slots = static_cast<int>(pool.tenants.size());
  WorldTemplateCache templates;
  ReplayLogStore store;
  enum class Mode { kLive, kRecord, kReplay };
  auto pass = [&](const char* name, Mode mode) {
    const int id = s.run.spans.Begin(name, s.root, -1);
    PoolPass p = RunPool(pool, slots, [&](int slot) {
      FleetWorldConfig config =
          WorldConfig(pool.tenants[static_cast<size_t>(slot)], &templates);
      config.record_into = mode == Mode::kRecord ? &store : nullptr;
      config.replay_from = mode == Mode::kReplay ? &store : nullptr;
      return config;
    });
    s.run.spans.End(id);
    return p;
  };
  auto sum = [](const PoolPass& p, const std::function<double(size_t)>& f) {
    double total = 0;
    for (size_t i = 0; i < p.report.worlds.size(); ++i) {
      total += f(i);
    }
    return total;
  };
  auto wall_ns = [](const PoolPass& p) {
    double total = 0;
    for (size_t i = 0; i < p.end_ns.size(); ++i) {
      total += static_cast<double>(p.end_ns[i] - p.start_ns[i]);
    }
    return total;
  };

  // First pass: a fresh template cache, so one world cold-boots.
  const PoolPass cold = pass("diff.world.cold_cache", Mode::kLive);
  double cold_boot_ns = 0;
  double clone_ns = 0;
  int clones = 0;
  for (const WorldResult& w : cold.report.worlds) {
    if (w.provision.built_template) {
      cold_boot_ns += static_cast<double>(w.provision.boot_ns);
    } else if (w.provision.cloned) {
      clone_ns += static_cast<double>(w.provision.boot_ns);
      ++clones;
    }
  }
  s.Layer("exec.cold_boot_ms", cold_boot_ns / 1e6, "ms");
  s.Layer("exec.clone_ms", clones > 0 ? clone_ns / clones / 1e6 : 0, "ms");
  s.Layer("exec.template_hit_ratio",
          static_cast<double>(templates.hits()) /
              static_cast<double>(templates.hits() + templates.misses()),
          "ratio");

  const PoolPass live = pass("diff.world.live", Mode::kLive);
  const MetricsSnapshot& m = live.report.metrics;
  const double ticks = Counter(m.counters, "rt.fast_loops");
  const double live_ns_per_tick = ticks > 0 ? wall_ns(live) / ticks : 0;
  s.Layer("exec.provision_ms",
          sum(live, [&](size_t i) {
            return static_cast<double>(live.report.worlds[i].provision.boot_ns);
          }) / slots / 1e6,
          "ms");
  s.Layer("exec.fly_ms",
          sum(live, [&](size_t i) {
            return static_cast<double>(live.report.worlds[i].provision.fly_ns);
          }) / slots / 1e6,
          "ms");
  s.Layer("flight.fast_loops", ticks, "count");
  s.Layer("flight.ns_per_tick", live_ns_per_tick, "ns");
  s.Layer("core.overhead_ns_per_tick", live_ns_per_tick - sitl_ns_per_tick,
          "ns");
  s.Layer("rt.deadline_misses", Counter(m.counters, "rt.deadline_misses"),
          "count");
  const double txns = Counter(m.counters, "binder.txns");
  s.Layer("binder.txns", txns, "count");
  s.Layer("binder.fast_path_ratio",
          txns > 0 ? Counter(m.counters, "binder.txns_fast_path") / txns : 0,
          "ratio");
  const double flushes = Counter(m.counters, "mav.wire_flushes");
  s.Layer("mavlink.frames_per_datagram",
          flushes > 0 ? Counter(m.counters, "mav.wire_frames") / flushes : 0,
          "ratio");
  const double delivered = Counter(m.counters, "net.downlink_frames");
  const double lost = Counter(m.counters, "net.downlink_lost");
  s.Layer("net.downlink_frames", delivered, "count");
  s.Layer("net.loss_ratio",
          delivered + lost > 0 ? lost / (delivered + lost) : 0, "ratio");

  const PoolPass recorded = pass("diff.world.record", Mode::kRecord);
  double parse_ms = 0;
  double log_bytes = 0;
  bool ok = true;
  for (int i = 0; i < slots; ++i) {
    const WorldResult& live_w = live.report.worlds[static_cast<size_t>(i)];
    const WorldResult& rec_w = recorded.report.worlds[static_cast<size_t>(i)];
    const uint64_t seed = FleetExecutor::WorldSeed(pool.base_seed, i);
    std::shared_ptr<const std::string> bytes = store.Get(seed);
    ok = ok && rec_w.digest == live_w.digest && bytes != nullptr;
    if (bytes == nullptr) {
      continue;
    }
    const int id = s.run.spans.Begin("ReplayLog::FromBytes", s.root, i);
    const int64_t start = NowNs();
    StatusOr<ReplayLog> log =
        ReplayLog::FromBytes(*bytes, seed, ReplayLogFingerprint(*bytes));
    parse_ms += ElapsedMs(start);
    s.run.spans.End(id);
    ok = ok && log.ok();
    log_bytes += static_cast<double>(bytes->size());
  }
  s.Layer("replay.parse_ms", parse_ms / slots, "ms");
  s.Layer("replay.log_mb", log_bytes / slots / (1 << 20), "MB");

  (void)pass("diff.world.replay_warm", Mode::kReplay);  // Parses into cache.
  const PoolPass replayed = pass("diff.world.replay", Mode::kReplay);
  double underruns = 0;
  for (size_t i = 0; i < replayed.report.worlds.size(); ++i) {
    const WorldResult& w = replayed.report.worlds[i];
    ok = ok && w.replay.digest_match &&
         w.digest == live.report.worlds[i].digest;
    underruns += static_cast<double>(w.replay.underruns);
  }
  const double replay_ticks =
      Counter(replayed.report.metrics.counters, "rt.fast_loops");
  const double replay_ns_per_tick =
      replay_ticks > 0 ? wall_ns(replayed) / replay_ticks : 0;
  s.Layer("replay.ns_per_tick", replay_ns_per_tick, "ns");
  s.Layer("replay.underruns", underruns, "count");
  s.Layer("flight.continuous_ns_per_tick",
          live_ns_per_tick - replay_ns_per_tick, "ns");
  if (!ok || replay_ticks != ticks) {
    s.Fail("record/replay pass: a recording or replay missed the live "
           "world's digest or tick count");
  }
}

// -------------------------------------------------------------- snapshot

struct ProbeSystem {
  SimClock clock;
  std::unique_ptr<AnDroneSystem> system;
};

// Boot plus one deployed tenant: the deterministic construction that both
// the saved system and every restore target go through.
Status BuildSystem(uint64_t seed, const GeoPoint& waypoint, ProbeSystem& ps) {
  AnDroneOptions options;
  options.base = kBase;
  options.seed = seed;
  ps.system = std::make_unique<AnDroneSystem>(&ps.clock, options);
  RETURN_IF_ERROR(ps.system->Boot());
  VirtualDroneDefinition def;
  def.id = "vd-0";
  def.owner = "tenant-0";
  def.waypoints = {WaypointSpec{waypoint, 60}};
  def.max_duration_s = 30;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "gps", "flight-control"};
  return ps.system->Deploy(def, WhitelistTemplate::kStandard).status();
}

std::string SaveSystem(ProbeSystem& ps) {
  SnapshotWriter w;
  TimerRegistry timers;
  w.I64(ps.clock.now());
  w.U64(ps.clock.events_run());
  ps.system->SaveState(w, timers);
  timers.Persist(w);
  return w.Take();
}

// The full restore sequence: component state, clock rewind, timer re-arm.
Status RestoreSystem(ProbeSystem& ps, const std::string& blob) {
  SnapshotReader r(blob);
  int64_t now = 0;
  uint64_t events = 0;
  RETURN_IF_ERROR(r.I64(&now));
  RETURN_IF_ERROR(r.U64(&events));
  RETURN_IF_ERROR(ps.system->RestoreState(r));
  ps.clock.ResetForRestore(now, events);
  TimerRearmer rearmer;
  ps.system->RegisterTimers(rearmer);
  RETURN_IF_ERROR(rearmer.Replay(r));
  if (r.remaining() != 0) {
    return InvalidArgumentError("snapshot probe: trailing bytes");
  }
  return OkStatus();
}

void ProbeSnapshot(Sweep& s) {
  Rng rng(s.Seed(0x736e));
  const uint64_t seed = rng.NextU64();
  const GeoPoint waypoint = FromNed(
      kBase, NedPoint{rng.Uniform(-120, 120), rng.Uniform(-120, 120), -15});
  ProbeSystem source;
  Status built = BuildSystem(seed, waypoint, source);
  PlannerJob job;
  job.vdrone_ref = "vd-0";
  job.waypoint = waypoint;
  job.service_energy_j = 170.0 * 20;
  job.service_time_s = 20;
  PlannerConfig pc;
  pc.depot = kBase;
  pc.annealing_iterations = 50;
  StatusOr<FlightPlan> plan = FlightPlanner(EnergyModel(), pc).Plan({job});
  if (!built.ok() || !plan.ok() || plan->routes.empty()) {
    s.Fail("snapshot probe: the system would not boot, deploy or plan");
    return;
  }
  // Stop the mission driver 10-30 simulated seconds in, mid-flight.
  const int stop_after = 100 + static_cast<int>(rng.NextU64Below(200));
  int pulses = 0;
  source.system->SetMissionPulse([&pulses, stop_after] {
    return ++pulses < stop_after;
  });
  StatusOr<FlightExecutionReport> flight =
      source.system->ExecuteRoute(plan->routes[0], {job});
  if (flight.status().code() != StatusCode::kCancelled ||
      !source.system->mission_progress().InFlight()) {
    s.Fail("snapshot probe: the mission did not stop mid-flight");
    return;
  }

  std::string blob;
  const double save_us = s.Median3("probe.snapshot.save", [&](int) {
    const int64_t start = NowNs();
    blob = SaveSystem(source);
    return NsPer(start, 1e3);
  });
  bool fixed_point = true;
  const double restore_us = s.Median3("probe.snapshot.restore", [&](int) {
    ProbeSystem target;
    if (!BuildSystem(seed, waypoint, target).ok()) {
      fixed_point = false;
      return 0.0;
    }
    const int64_t start = NowNs();
    const Status restored = RestoreSystem(target, blob);
    const double us = NsPer(start, 1e3);
    fixed_point = fixed_point && restored.ok() && SaveSystem(target) == blob;
    return us;
  });
  if (!fixed_point) {
    s.Fail("snapshot probe: save -> restore -> save is not byte-identical");
  }
  s.Layer("snapshot.save_us", save_us, "us");
  s.Layer("snapshot.restore_us", restore_us, "us");
  s.Layer("snapshot.bytes", static_cast<double>(blob.size()), "bytes");
}

// ---------------------------------------------------------- scenario, obs

void CampaignDifferential(Sweep& s) {
  StatusOr<CampaignSpec> campaign = LoadCampaign(s.options.manifest_path);
  if (!campaign.ok()) {
    s.Fail("campaign pass: " + campaign.status().message());
    return;
  }
  s.Layer("scenario.parse_ms", s.Median3("probe.scenario.parse", [&](int) {
    const int64_t start = NowNs();
    StatusOr<CampaignSpec> again = LoadCampaign(s.options.manifest_path);
    return again.ok() ? ElapsedMs(start) : 0.0;
  }), "ms");
  std::vector<ScenarioSpec> all;
  s.Layer("scenario.expand_ms", s.Median3("probe.scenario.expand", [&](int) {
    const int64_t start = NowNs();
    StatusOr<std::vector<ScenarioSpec>> expanded = ExpandScenarios(*campaign);
    const double ms = ElapsedMs(start);
    if (expanded.ok()) {
      all = std::move(*expanded);
    }
    return ms;
  }), "ms");

  // Up to six instances per family, drawn from the seed.
  constexpr size_t kPerFamily = 6;
  Rng pick(s.Seed(0x7361));
  std::vector<ScenarioSpec> sample;
  std::vector<std::string> families;
  for (const ScenarioTemplate& t : campaign->templates) {
    families.push_back(t.name);
    std::vector<size_t> members;
    for (size_t i = 0; i < all.size(); ++i) {
      if (all[i].family == t.name) {
        members.push_back(i);
      }
    }
    const size_t take = std::min(kPerFamily, members.size());
    for (size_t k = 0; k < take; ++k) {
      std::swap(members[k], members[k + pick.NextU64Below(members.size() - k)]);
      sample.push_back(all[members[k]]);
    }
  }

  // Serial re-fly with the campaign's own world path: one template cache,
  // each scenario's assertions evaluated on its result.
  WorldTemplateCache templates;
  std::map<std::string, std::pair<double, double>> family_cost;  // ms, sim s
  double serial_ms = 0;
  double restarts = 0;
  int passed = 0;
  int failed = 0;
  const int serial = s.run.spans.Begin("diff.campaign.serial", s.root, -1);
  for (size_t i = 0; i < sample.size(); ++i) {
    const ScenarioSpec& spec = sample[i];
    FleetWorldConfig config = ScenarioWorldConfig(spec);
    config.templates = &templates;
    WorldContext ctx;
    ctx.index = static_cast<int>(i);
    ctx.seed = spec.seed;
    const int id = s.run.spans.Begin("RunFleetWorld.scenario", serial,
                                     static_cast<int64_t>(i));
    const int64_t start = NowNs();
    const WorldResult result = RunFleetWorld(config, ctx);
    const double ms = ElapsedMs(start);
    s.run.spans.End(id);
    const double sim_s =
        Counter(result.metrics.counters, "rt.fast_loops") / kFastLoopHz;
    s.run.spans.Count(id, "sim_s", sim_s);
    family_cost[spec.family].first += ms;
    family_cost[spec.family].second += sim_s;
    serial_ms += ms;
    restarts += Counter(result.metrics.counters, "supervisor.restarts");
    if (EvaluateAssertions(spec.assertions, result).empty()) {
      ++passed;
    } else {
      ++failed;
    }
  }
  s.run.spans.End(serial);

  CampaignOptions options;
  options.name = campaign->name;
  options.threads = s.options.threads;
  options.triage = false;
  const int parallel = s.run.spans.Begin("CampaignRunner::Run", s.root, -1);
  const int64_t start = NowNs();
  const CampaignReport report = CampaignRunner(options).Run(sample);
  const double parallel_ms = ElapsedMs(start);
  s.run.spans.End(parallel);
  if (report.passed != passed || report.failed != failed ||
      report.skipped != 0) {
    s.Fail("campaign pass: serial verdicts " + std::to_string(passed) + "/" +
           std::to_string(failed) + " vs report " +
           std::to_string(report.passed) + "/" +
           std::to_string(report.failed));
  }
  s.Layer("exec.parallel_efficiency",
          serial_ms / (options.threads * parallel_ms), "ratio");
  s.Layer("container.supervisor_restarts", restarts, "count");
  for (const std::string& family : families) {
    const auto& [ms, sim_s] = family_cost[family];
    s.Layer("scenario." + family + ".ms_per_sim_s", sim_s > 0 ? ms / sim_s : 0,
            "ms/sim_s");
  }

  double repro_ms = 0;
  for (const FailureBucket& bucket : report.buckets) {
    const int id = s.run.spans.Begin("CampaignRunner::Repro", s.root, -1);
    const int64_t repro_start = NowNs();
    StatusOr<WorldResult> repro =
        CampaignRunner::Repro(sample, bucket.representative);
    repro_ms += ElapsedMs(repro_start);
    s.run.spans.End(id);
    if (!repro.ok() || repro->failed_assertions.empty()) {
      s.Fail("campaign pass: repro of " + bucket.representative +
             " did not fail again");
    }
  }
  s.Layer("obs.repro_ms",
          report.buckets.empty() ? 0 : repro_ms / report.buckets.size(), "ms");
}

void ProbeHistogram(Sweep& s) {
  constexpr int kRecords = 4'000'000;
  bool ok = true;
  s.Layer("obs.hist_record_ns", s.Median3("probe.obs.hist", [&](int rep) {
    Rng rng(s.Seed(0x6869 + static_cast<uint64_t>(rep)));
    std::vector<int64_t> values(4096);
    for (int64_t& v : values) {
      v = static_cast<int64_t>(std::pow(10.0, rng.Uniform(0, 9)));
    }
    MetricsRegistry registry;
    Histogram& hist = registry.Hist("latency.session_us", 10, 12);
    const int64_t start = NowNs();
    for (int i = 0; i < kRecords; ++i) {
      hist.Record(values[static_cast<size_t>(i) & 4095]);
    }
    const double ns = NsPer(start, kRecords);
    ok = ok && hist.total_count() == kRecords;
    return ns;
  }), "ns");
  if (!ok) {
    s.Fail("histogram probe: recorded count differs from records made");
  }
}

// ------------------------------------------------------------ ctrl, cloud

void ProbeRouteCost(Sweep& s) {
  constexpr int kRoutes = 200'000;
  bool ok = true;
  const double ns = s.Median3("probe.cloud.route_cost", [&](int rep) {
    Rng rng(s.Seed(0x7263 + static_cast<uint64_t>(rep)));
    std::vector<PlannerJob> jobs(8);
    for (size_t j = 0; j < jobs.size(); ++j) {
      const double dwell = rng.Uniform(5, 30);
      jobs[j].vdrone_id = static_cast<int>(j);
      jobs[j].waypoint = FromNed(kBase, NedPoint{rng.Uniform(-400, 400),
                                                 rng.Uniform(-400, 400), -15});
      jobs[j].service_energy_j = 170.0 * dwell;
      jobs[j].service_time_s = dwell;
    }
    std::vector<std::vector<size_t>> orders(256);
    for (std::vector<size_t>& order : orders) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        order.push_back(j);
      }
      for (size_t j = order.size() - 1; j > 0; --j) {
        std::swap(order[j], order[rng.NextU64Below(j + 1)]);
      }
    }
    PlannerConfig pc;
    pc.depot = kBase;
    const FlightPlanner planner(EnergyModel(), pc);
    double sum = 0;
    const int64_t start = NowNs();
    for (int i = 0; i < kRoutes; ++i) {
      const std::vector<size_t>& order = orders[static_cast<size_t>(i) & 255];
      sum += planner.RouteEnergyJ(jobs, order) +
             planner.RouteTimeS(jobs, order);
    }
    const double ns = NsPer(start, kRoutes);
    ok = ok && std::isfinite(sum) && sum > 0;
    return ns;
  });
  if (!ok) {
    s.Fail("route-cost probe: route energy/time sums are not finite");
  }
  s.Layer("cloud.route_cost_ns", ns, "ns");
}

void ServeDifferential(Sweep& s) {
  const TenantMixSpec mix = BuiltinTenantMix();
  const ControlPlaneConfig config = ServeConfig(s.Seed(0x7376), 16);
  std::vector<double> load_gen_ms;
  std::vector<double> merge_ms;
  ServeSplit split;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const int id = s.run.spans.Begin("ControlPlaneRouter::Serve", s.root, rep);
    const int64_t start = NowNs();
    const ControlPlaneReport report = ControlPlaneRouter(config).Serve(mix);
    const double serve_ms = ElapsedMs(start);
    s.run.spans.End(id);
    const int split_id = s.run.spans.Begin("diff.serve.split", s.root, rep);
    split = SplitServe(config, mix, s.run.spans, split_id);
    s.run.spans.End(split_id);
    for (std::string& problem : CheckServeSplit(split, report)) {
      s.Fail(std::move(problem));
    }
    double shards_ms = 0;
    for (double ms : split.shard_ms) {
      shards_ms += ms;
    }
    load_gen_ms.push_back(split.load_gen_ms);
    // What Serve spends beyond generating the load and serving the shards:
    // the executor hand-off and the terminal-state / histogram merge.
    merge_ms.push_back(serve_ms - split.load_gen_ms - shards_ms);
  }
  s.Layer("ctrl.load_gen_ms", Median(load_gen_ms), "ms");
  s.Layer("ctrl.shard_serve_ms.p50", Median(split.shard_ms), "ms");
  s.Layer("ctrl.shard_serve_ms.max", Percentile(split.shard_ms, 100), "ms");
  s.Layer("ctrl.merge_ms", Median(merge_ms), "ms");
  s.Layer("ctrl.admitted", split.admitted, "count");
  s.Layer("ctrl.queued", split.queued, "count");
  s.Layer("ctrl.boards_launched", split.boards_launched, "count");
}

}  // namespace

void RunLayerSweep(const BenchOptions& options, WorkloadRun& run) {
  Sweep s{options, run};
  s.root = run.spans.Begin("layer_sweep", -1, -1);
  ProbeGaussian(s);
  ProbeSimClock(s);
  ProbeSensorsAndPhysics(s);
  WorldDifferential(s, SitlNsPerTick(s));
  ProbeSnapshot(s);
  CampaignDifferential(s);
  ProbeHistogram(s);
  ProbeRouteCost(s);
  ServeDifferential(s);
  run.spans.End(s.root);
}

}  // namespace androne::perfbench
