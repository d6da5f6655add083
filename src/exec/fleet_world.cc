#include "src/exec/fleet_world.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/binder/binder_driver.h"
#include "src/cloud/energy_model.h"
#include "src/cloud/flight_planner.h"
#include "src/container/supervisor.h"
#include "src/core/drone.h"
#include "src/exec/world_template.h"
#include "src/flight/flight_log.h"
#include "src/net/channel.h"
#include "src/net/link_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/replay/replay_log.h"
#include "src/snapshot/archive.h"
#include "src/snapshot/checkpoint.h"
#include "src/util/bytes.h"
#include "src/util/fault_plan.h"
#include "src/util/logging.h"

namespace androne {

namespace {

// All worlds launch from the same base; variation between worlds comes only
// from the seed (waypoint placement, link noise, sensor noise).
const GeoPoint kFleetBase{43.6084298, -85.8110359, 0};

VirtualDroneDefinition MakeTenant(int index, const GeoPoint& waypoint,
                                  double dwell_s) {
  VirtualDroneDefinition def;
  def.id = "vd-" + std::to_string(index);
  def.owner = "tenant-" + std::to_string(index);
  def.waypoints = {WaypointSpec{waypoint, 60}};
  def.max_duration_s = dwell_s + 10;
  def.energy_allotted_j = 45000;
  def.waypoint_devices = {"camera", "gps", "flight-control"};
  return def;
}

// The boot seed every template-family member boots with (DESIGN.md §14).
// A run-stable constant, deliberately NOT derived from the per-world seed
// or the fingerprint: boot-time RNG draws (warmup sensor noise) must be
// identical for every member so the post-boot state is family-wide shared;
// per-world divergence starts at ReseedStreams(world_seed) at the boundary.
constexpr uint64_t kCanonicalBootSeed = 0x5eedb007'0a11ce5dull;

// Wall-clock nanoseconds since an arbitrary epoch (provisioning telemetry
// only — never folded into anything deterministic).
uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sensor warmup horizon: Boot runs the clock this long before the mission
// boundary, so only fault windows that can overlap [0, 2 s) shape the
// template's post-boot state.
constexpr SimTime kWarmupHorizon = Seconds(2);

// The phase a FleetWorldConfig field acts in (DESIGN.md §14):
//   kBoot    — shapes the post-boot template; feeds both fingerprints.
//   kWorld   — acts after the boot boundary; feeds ConfigFingerprint only.
//   kRuntime — decides where results go or how fast the world runs, never
//              what it computes; feeds neither.
enum class ConfigPhase { kBoot, kWorld, kRuntime };

// Calls v(phase, fields...) for every FleetWorldConfig field. The
// structured binding names every member, so a new field does not compile
// until it is tagged here. Sensor-fault windows are split: only those that
// can touch the warmup horizon shape boot state, so plans differing purely
// after the boundary share a template.
template <class V>
void VisitConfig(const FleetWorldConfig& config, V&& v) {
  constexpr ConfigPhase kBoot = ConfigPhase::kBoot;
  constexpr ConfigPhase kWorld = ConfigPhase::kWorld;
  const auto& [tenants, dwell_s, waypoint_spread_m, tenant_placements,
               annealing_iterations, batch_telemetry, memory_budget_mb,
               trace_categories, trace_capacity, trace, downlink_profile,
               net_faults, sensor_faults, crash_loop, checkpoint, crash_at_s,
               max_restores, tolerate_deploy_rejection, templates, record_into,
               replay_from, fork_blob, fork_reseed, checkpoint_sink] = config;
  auto window = [&v](ConfigPhase phase, const FaultWindowSpec& w) {
    v(phase, w.kind, w.scope, w.start, w.end, w.p0, w.p1, w.d0);
  };
  v(kWorld, tenants, dwell_s, waypoint_spread_m, tenant_placements.size());
  for (const TenantPlacement& placement : tenant_placements) {
    v(kWorld, placement.north_m, placement.east_m, placement.dwell_s);
  }
  v(kWorld, annealing_iterations, batch_telemetry);
  v(kBoot, memory_budget_mb, trace_categories, trace_capacity);
  v(kWorld, downlink_profile, net_faults != nullptr);
  if (net_faults != nullptr) {
    for (const FaultWindowSpec& w : net_faults->schedule().windows()) {
      window(kWorld, w);
    }
  }
  v(kBoot, sensor_faults != nullptr);
  if (sensor_faults != nullptr) {
    for (const FaultWindowSpec& w : sensor_faults->schedule().windows()) {
      window(w.start < kWarmupHorizon && w.end > 0 ? kBoot : kWorld, w);
    }
  }
  v(kWorld, crash_loop.count, crash_loop.start_s, crash_loop.period_s,
    crash_loop.max_restarts, crash_at_s.size());
  for (double at : crash_at_s) {
    v(kWorld, at);
  }
  v(kWorld, tolerate_deploy_rejection);
  v(ConfigPhase::kRuntime, trace, checkpoint, max_restores, templates,
    record_into, replay_from, fork_blob, fork_reseed, checkpoint_sink);
}

// FNV-1a over the fields VisitConfig tags with the wanted phases, in tag
// order: boot only for the template key, boot and world for the config
// fingerprint.
uint64_t Fingerprint(const FleetWorldConfig& config, bool with_world) {
  uint64_t fp = kFnv1a64Offset;
  VisitConfig(config, [&](ConfigPhase phase, const auto&... fields) {
    if (phase == ConfigPhase::kBoot ||
        (with_world && phase == ConfigPhase::kWorld)) {
      ((fp = Fnv1a64Value(fields, fp)), ...);
    }
  });
  return fp;
}

}  // namespace

uint64_t TemplateFingerprint(const FleetWorldConfig& config) {
  return Fingerprint(config, /*with_world=*/false);
}

uint64_t ConfigFingerprint(const FleetWorldConfig& config) {
  return Fingerprint(config, /*with_world=*/true);
}

namespace {

// One life of a fleet world: deterministic construction (identical for a
// fresh run and for a restore target), the mission flight, and the result
// scrape. The recovery loop in RunFleetWorld builds one attempt per life —
// a crash tears the whole attempt down, exactly like a process death.
class WorldAttempt {
 public:
  WorldAttempt(const FleetWorldConfig& config, const WorldContext& ctx,
               int crashes_consumed)
      : config_(config),
        ctx_(ctx),
        crashes_consumed_(crashes_consumed),
        fingerprint_(ConfigFingerprint(config)) {}

  // Deterministic construction: trace wiring, boot (cold or cloned from a
  // world template), deploys, chaos payload, downlink, cancel poll,
  // scheduled crash events. Identical for every attempt at the same
  // (config, seed) — restore overwrites dynamic state on top of this. A
  // failure here is infrastructure, not scenario.
  Status Build() {
    const uint64_t boot_start_ns = WallNowNs();
    trace_ = config_.trace;
    if (trace_ == nullptr && config_.trace_categories != 0) {
      owned_trace_ = std::make_unique<TraceRecorder>(config_.trace_categories,
                                                     config_.trace_capacity);
      trace_ = owned_trace_.get();
    }
    if (trace_ != nullptr) {
      trace_->BindClock(&clock_);
      AttachClockTrace(&clock_, trace_);
    }

    // Template resolution (DESIGN.md §14). A caller-owned recorder
    // (config_.trace) accumulates events across worlds, so those worlds are
    // never template-shareable — they always cold-boot.
    WorldTemplateCache* templates =
        config_.trace == nullptr ? config_.templates : nullptr;
    std::shared_ptr<const WorldTemplate> tpl;
    bool builder = false;
    if (templates != nullptr) {
      template_fp_ = TemplateFingerprint(config_);
      tpl = templates->Acquire(template_fp_, &builder);
      cloned_ = tpl != nullptr;
    }

    AnDroneOptions options;
    options.base = kFleetBase;
    options.seed = ctx_.seed;
    // Every world (cold, builder, or clone) boots from the canonical boot
    // seed and is re-seeded with its own seed at the post-boot boundary —
    // that single fork point is what makes a clone digest-identical to a
    // cold boot. Clones skip the warmup the template blob already contains.
    options.boot_seed = kCanonicalBootSeed;
    options.boot_warmup = !cloned_;
    options.memory_budget_mb = config_.memory_budget_mb;
    options.trace = trace_;
    options.sensor_faults = config_.sensor_faults;
    system_ = std::make_unique<AnDroneSystem>(&clock_, options);
    {
      Status booted = system_->Boot();
      if (!booted.ok()) {
        if (builder) {
          templates->AbandonBuild(template_fp_);  // Re-elect a waiter.
        }
        return booted;
      }
    }
    if (cloned_) {
      RETURN_IF_ERROR(Overlay(BlobKind::kTemplate, tpl->blob));
    } else if (builder) {
      auto built = std::make_shared<WorldTemplate>();
      built->fingerprint = template_fp_;
      built->blob = Capture(BlobKind::kTemplate);
      built->boot_ns = WallNowNs() - boot_start_ns;
      built_template_ = true;
      templates->Publish(std::move(built));
    }
    // The fork point: from here on, every RNG draw comes from the world's
    // own seed. Runs on ALL paths (including template-less cold boots) so
    // the three ways to reach this line are byte-equivalent.
    system_->ReseedStreams(ctx_.seed);

    if (config_.batch_telemetry) {
      system_->proxy().EnableTelemetryBatching();
    }

    // Tenant waypoints scatter around the base, drawn from a world-private
    // stream so two worlds with different seeds fly different routes —
    // unless the config pins explicit placements (cohort flights serve the
    // waypoints the tenants actually ordered).
    const bool explicit_placements = !config_.tenant_placements.empty();
    if (explicit_placements &&
        config_.tenant_placements.size() !=
            static_cast<size_t>(config_.tenants)) {
      return InvalidArgumentError(
          "tenant_placements size must equal the tenant count");
    }
    Rng placement(SplitMix64(ctx_.seed ^ 0x57a9c0ffee));
    for (int i = 0; i < config_.tenants; ++i) {
      double north;
      double east;
      double dwell = config_.dwell_s;
      if (explicit_placements) {
        const TenantPlacement& p =
            config_.tenant_placements[static_cast<size_t>(i)];
        north = p.north_m;
        east = p.east_m;
        dwell = p.dwell_s;
      } else {
        north = placement.Uniform(-config_.waypoint_spread_m,
                                  config_.waypoint_spread_m);
        east = placement.Uniform(-config_.waypoint_spread_m,
                                 config_.waypoint_spread_m);
      }
      GeoPoint waypoint = FromNed(kFleetBase, NedPoint{north, east, -15});
      auto deployed = system_->Deploy(MakeTenant(i, waypoint, dwell),
                                      WhitelistTemplate::kStandard);
      if (!deployed.ok()) {
        if (config_.tolerate_deploy_rejection) {
          // Memory-pressure scenarios assert on this split (paper Figure
          // 12): the admission rejection is the datum, not a world failure.
          ++tenants_rejected_;
          continue;
        }
        return deployed.status();
      }
      tenants_.push_back(*deployed);
      PlannerJob job;
      job.vdrone_id = i;
      job.vdrone_ref = "vd-" + std::to_string(i);
      job.waypoint = waypoint;
      job.service_energy_j = 170.0 * dwell;
      job.service_time_s = dwell;
      jobs_.push_back(job);
    }

    // Crash-loop chaos: a bystander payload container crashed on schedule,
    // supervised (backoff restarts, give-up) by a world-owned supervisor.
    // Isolation means the flight must not notice.
    if (config_.crash_loop.enabled()) {
      auto payload = system_->runtime().CreateContainer(
          "chaos-payload", ContainerKind::kVirtualDrone, system_->base_image());
      RETURN_IF_ERROR(payload.status());
      RETURN_IF_ERROR(system_->runtime().StartContainer((*payload)->id()));
      SupervisorPolicy policy;
      policy.max_consecutive_restarts = config_.crash_loop.max_restarts;
      chaos_supervisor_ = std::make_unique<ContainerSupervisor>(
          &clock_, &system_->runtime(), policy, SplitMix64(ctx_.seed ^ 0xc4a5));
      chaos_payload_ = (*payload)->id();
      chaos_supervisor_->Watch(chaos_payload_);
      chaos_events_.resize(static_cast<size_t>(config_.crash_loop.count), 0);
      for (int k = 0; k < config_.crash_loop.count; ++k) {
        ArmChaosCrash(static_cast<size_t>(k),
                      clock_.now() + SecondsF(config_.crash_loop.start_s +
                                              k * config_.crash_loop.period_s));
      }
    }

    // Planner downlink: telemetry fanned to the planner endpoint is encoded
    // into MAVProxy's reused wire scratch, VPN-encapsulated, and shipped over
    // a seeded link channel — the §6.5 ground path, per world. The scenario's
    // link profile picks the regime; a fault plan decorates it with scripted
    // outage/burst-loss/latency windows.
    link_ = MakeLinkModel(config_.downlink_profile);
    LinkModel* downlink_model = link_.get();
    if (config_.net_faults != nullptr) {
      faulty_link_ = std::make_unique<FaultyLinkModel>(
          link_.get(), config_.net_faults, &clock_, LinkDirection::kForward);
      downlink_model = faulty_link_.get();
    }
    downlink_ = std::make_unique<NetworkChannel>(
        &clock_, downlink_model, SplitMix64(ctx_.seed + 0x11e7));
    tunnel_tx_ = std::make_unique<VpnTunnel>(downlink_.get(), 42);
    tunnel_rx_ = std::make_unique<VpnTunnel>(downlink_.get(), 42);
    if (trace_ != nullptr) {
      downlink_->SetTrace(trace_);
      tunnel_tx_->SetTrace(trace_);
      tunnel_rx_->SetTrace(trace_);
    }
    tunnel_rx_->SetReceiver([this](const std::vector<uint8_t>& bytes) {
      ++frames_down_;
      bytes_down_ += bytes.size();
    });
    system_->proxy().SetPlannerWireSink(
        [this](const std::vector<uint8_t>& bytes) { tunnel_tx_->Send(bytes); });

    // Cooperative fleet cancellation: a once-per-sim-second clock event
    // polls the shared flag and aborts the flight (RTL + resumable saves)
    // when the fleet budget expires or an operator cancels.
    ArmPoll(clock_.now() + Seconds(1));

    // The crash fault family: each scheduled sim-time kills this world.
    // ScheduleAt clamps to now, so a crash time inside the boot warmup
    // lands at the first mission pulse.
    ArmCrashEvents();

    // Record/replay attachment (DESIGN.md §15). Hooks draw no randomness,
    // so attaching after the reseed boundary keeps all three boot paths
    // byte-equivalent. Replay validates the log up front — a
    // missing/mismatched/corrupt log fails the build, never mid-flight —
    // and then decodes one tick at a time into a reused sample.
    if (config_.replay_from != nullptr) {
      auto parsed = config_.replay_from->Parsed(ctx_.seed, fingerprint_);
      if (!parsed.ok()) {
        return parsed.status();
      }
      replay_log_ = std::move(*parsed);
      system_->flight().SetPlaneSource([this]() -> const FlightPlaneSample* {
        if (replay_cursor_ >= replay_log_->tick_count()) {
          return nullptr;
        }
        replay_log_->ReadTick(replay_cursor_++, replay_sample_);
        return &replay_sample_;
      });
    }
    if (config_.record_into != nullptr) {
      recorder_ = std::make_unique<ReplayLogWriter>(ctx_.seed, fingerprint_);
      system_->flight().SetPlaneRecorder(
          [this](const FlightPlaneSample& sample) {
            recorder_->Append(sample);
          });
    }

    boot_ns_ = WallNowNs() - boot_start_ns;
    return OkStatus();
  }

  // Mission resume from a checkpoint: crash recovery (reseed == 0) and
  // fork-and-explore (DESIGN.md §15), where reseed != 0 re-seeds every RNG
  // stream so a divergent branch explores a different future (reseed == 0
  // is also the fork's control branch, which must reproduce the recorded
  // tail bit-identically). Overlays the blob on the freshly built world,
  // then checks the save → restore → save byte fixed point.
  Status Resume(const std::string& blob, uint64_t reseed) {
    RETURN_IF_ERROR(Overlay(BlobKind::kCheckpoint, blob));
    have_checkpoint_ = true;
    last_checkpoint_time_ = clock_.now();
    last_checkpoint_phase_ = system_->mission_progress().phase;
    fixed_point_ok_ = Capture(BlobKind::kCheckpoint) == blob;
    // ResetForRestore dropped the crash events Build armed; re-arm the
    // not-yet-consumed remainder on the restored timeline. (They are never
    // part of the snapshot itself — see ArmCrashEvents.)
    ArmCrashEvents();
    if (reseed != 0) {
      system_->ReseedStreams(reseed);
    }
    return OkStatus();
  }

  // Plans and flies the route (fresh or resumed), then drains the downlink.
  // Returns CANCELLED exactly when a scheduled crash landed mid-mission;
  // any other non-OK status is an infrastructure failure.
  Status Fly(bool resumed, CheckpointStore* store) {
    const uint64_t fly_start_ns = WallNowNs();
    Status status = FlyImpl(resumed, store);
    fly_ns_ = WallNowNs() - fly_start_ns;
    return status;
  }

  Status FlyImpl(bool resumed, CheckpointStore* store) {
    system_->SetMissionPulse([this, store] {
      if (crashed_) {
        return false;  // The world process dies here.
      }
      // A replaying world never checkpoints: the skipped continuous layer
      // (physics internals, estimator filter state, sensor RNG streams)
      // is deliberately stale, so a blob captured here could not restore.
      if (replay_log_ == nullptr) {
        MaybeCheckpoint(store);
      }
      return true;
    });
    if (!jobs_.empty()) {
      PlannedRoute route;
      if (replay_log_ != nullptr && replay_log_->have_plan()) {
        // Replay skips the planner's annealing entirely — the recorded
        // route is the one the original run derived (and planning is a
        // pure function of (config, seed), so re-deriving it would only
        // burn the CPU the fast path exists to save).
        route = replay_log_->plan();
      } else {
        EnergyModel energy;
        PlannerConfig pc;
        pc.depot = kFleetBase;
        pc.fleet_size = 1;
        pc.annealing_iterations = config_.annealing_iterations;
        FlightPlanner planner(energy, pc);
        auto plan = planner.Plan(jobs_);
        if (!plan.ok()) {
          return plan.status();
        }
        if (plan->routes.empty()) {
          return InternalError("fleet world planner produced no route");
        }
        route = plan->routes[0];
      }
      if (recorder_ != nullptr) {
        recorder_->SetPlan(route);
      }
      auto flight = resumed ? system_->ResumeRoute(route, jobs_)
                            : system_->ExecuteRoute(route, jobs_);
      if (flight.ok()) {
        flight_report_ = std::move(*flight);
      } else if (flight.status().code() == StatusCode::kCancelled &&
                 crashed_) {
        return flight.status();  // Crash landed; the recovery loop takes over.
      } else {
        // A flight abort (safety cutoff under sensor chaos, battery floor,
        // mission timeout) is a scenario outcome, not an infrastructure
        // failure: the world still drains, exports counters/metrics/trace,
        // and reports completed = false — triage needs the faulted world's
        // trace to diff against its nominal twin.
        flight_ok_ = false;
      }
    } else {
      // Every tenant was rejected at admission (memory-pressure scenarios
      // with tolerate_deploy_rejection): no route to fly, but the world
      // still completes — the admitted/rejected split is its result. Run a
      // few simulated seconds so scheduled chaos (crash loops) plays out.
      system_->RunClockUntil([] { return false; }, Seconds(30));
    }
    // Drain the downlink: flush any residual telemetry batch and run one
    // more simulated second so in-flight datagrams reach the receiver
    // before the counters and latency histogram are read.
    system_->proxy().FlushTelemetryBatch();
    system_->RunClockUntil([] { return false; }, Seconds(1));
    // Replay: the skipped sensor reads never consulted the fault injector,
    // so its tallies are installed from the recording run's footer before
    // the metrics scrape — sensor.* (and the metrics digest) then match.
    if (replay_log_ != nullptr && replay_log_->footer().have_sensor_counters) {
      if (SensorFaultInjector* inj = system_->mutable_sensor_fault_injector()) {
        inj->RestoreCounters(replay_log_->footer().sensor_counters);
      }
    }
    return OkStatus();
  }

  // Scrapes the world boundary into |result|: counters, the structured
  // metrics snapshot, the trace export, and the determinism digests.
  void Finish(WorldResult& result) {
    result.completed = flight_ok_ && !system_->abort_requested();
    result.events_run = clock_.events_run();
    result.counters["waypoints_visited"] =
        static_cast<double>(flight_report_.waypoints_visited);
    result.counters["flight_time_s"] = flight_report_.flight_time_s;
    result.counters["battery_used_j"] = flight_report_.battery_used_j;
    result.counters["tenants_admitted"] = static_cast<double>(tenants_.size());
    result.counters["tenants_rejected"] =
        static_cast<double>(tenants_rejected_);
    result.counters["downlink_frames"] = static_cast<double>(frames_down_);
    result.counters["downlink_bytes"] = static_cast<double>(bytes_down_);
    result.counters["downlink_lost"] = static_cast<double>(downlink_->lost());
    result.counters["downlink_flushes"] =
        static_cast<double>(system_->proxy().wire_flushes());
    result.counters["wire_frames"] =
        static_cast<double>(system_->proxy().wire_frames());

    // Structured metrics snapshot (DESIGN.md §11): scraped once at the
    // world boundary, merged fleet-wide in index order by FleetExecutor.
    {
      BinderDriver* binder = system_->runtime().binder();
      MetricsRegistry metrics;
      metrics.Add("world.events_run", static_cast<double>(clock_.events_run()));
      metrics.Add("binder.txns",
                  static_cast<double>(binder->transaction_count()));
      metrics.Add("binder.txns_fast_path",
                  static_cast<double>(binder->fast_path_transactions()));
      metrics.Add("binder.txns_translated",
                  static_cast<double>(binder->translated_transactions()));
      metrics.Add("mav.wire_frames",
                  static_cast<double>(system_->proxy().wire_frames()));
      metrics.Add("mav.wire_flushes",
                  static_cast<double>(system_->proxy().wire_flushes()));
      metrics.Add("net.downlink_frames", static_cast<double>(frames_down_));
      metrics.Add("net.downlink_bytes", static_cast<double>(bytes_down_));
      metrics.Add("net.downlink_lost", static_cast<double>(downlink_->lost()));
      metrics.Add("rt.fast_loops",
                  static_cast<double>(system_->flight().fast_loop_count()));
      metrics.Add("rt.deadline_misses",
                  static_cast<double>(system_->flight().missed_deadlines()));
      metrics.Set("container.memory_mb", system_->runtime().MemoryUsageMb());
      metrics.Hist("downlink_latency_us").Merge(downlink_->latency_us());
      if (trace_ != nullptr) {
        metrics.Add("trace.recorded", static_cast<double>(trace_->recorded()));
        metrics.Add("trace.dropped", static_cast<double>(trace_->dropped()));
      }
      metrics.Add("fleet.tenants_admitted",
                  static_cast<double>(tenants_.size()));
      metrics.Add("fleet.tenants_rejected",
                  static_cast<double>(tenants_rejected_));
      if (faulty_link_ != nullptr) {
        metrics.Add("net.outage_losses",
                    static_cast<double>(faulty_link_->counters().outage_losses));
        metrics.Add("net.burst_losses",
                    static_cast<double>(faulty_link_->counters().burst_losses));
        metrics.Add(
            "net.inflated_samples",
            static_cast<double>(faulty_link_->counters().inflated_samples));
      }
      if (const SensorFaultInjector* inj = system_->sensor_fault_injector()) {
        metrics.Add("sensor.dropouts",
                    static_cast<double>(inj->counters().dropouts));
        metrics.Add("sensor.stuck_reads",
                    static_cast<double>(inj->counters().stuck_reads));
        metrics.Add("sensor.corrupted_reads",
                    static_cast<double>(inj->counters().corrupted_reads));
      }
      {
        const auto& episodes = system_->flight().safety().episodes();
        int cutoffs = 0;
        int deepest = 0;
        for (const SafetyEpisode& episode : episodes) {
          deepest = std::max(deepest, static_cast<int>(episode.deepest));
          if (episode.deepest == SafetyStage::kCutoff) {
            ++cutoffs;
          }
        }
        metrics.Add("safety.episodes", static_cast<double>(episodes.size()));
        metrics.Add("safety.cutoffs", static_cast<double>(cutoffs));
        metrics.Add("safety.deepest_stage", static_cast<double>(deepest));
      }
      if (chaos_supervisor_ != nullptr) {
        chaos_supervisor_->ExportMetrics(metrics);
      }
      result.metrics = metrics.Snapshot();
    }
    // A caller-owned recorder is exported by the caller; only a world-owned
    // recorder's export rides back on the result.
    if (owned_trace_ != nullptr) {
      result.trace_text = owned_trace_->ExportText();
    }

    // The determinism digest covers the physical flight (every logged
    // attitude sample) and the downlink latency distribution: if either
    // diverges across thread counts, fleet digests split. The flight digest
    // is also exported on its own — it must be invariant to transport-level
    // choices like telemetry batching, which legitimately change the full
    // digest.
    result.flight_digest = FlightLogDigest(system_->flight().flight_log());
    uint64_t digest = result.flight_digest;
    digest = Fnv1a64Value(downlink_->latency_us().Digest(), digest);
    digest = Fnv1a64Value(frames_down_, digest);
    digest = Fnv1a64Value(bytes_down_, digest);
    result.digest = digest;
  }

  // Replay-engine epilogue, after Finish has scraped the result: seal and
  // publish the recorded log and verify a replay against the recorded
  // footer — both into the Replay side struct (never counters/metrics/
  // digests; see WorldResult::Replay).
  void FinalizeReplay(WorldResult& result) {
    const uint64_t trace_hash =
        Fnv1a64(result.trace_text.data(), result.trace_text.size());
    if (replay_log_ != nullptr) {
      const ReplayFooter& footer = replay_log_->footer();
      result.replay.replayed = true;
      result.replay.log_bytes = replay_log_->byte_size();
      result.replay.ticks = system_->flight().replay_ticks();
      result.replay.underruns = system_->flight().replay_underruns();
      result.replay.digest_match =
          result.digest == footer.digest &&
          result.flight_digest == footer.flight_digest &&
          result.metrics.Digest() == footer.metrics_digest &&
          trace_hash == footer.trace_hash &&
          result.completed == footer.completed;
    }
    if (recorder_ != nullptr) {
      ReplayFooter footer;
      if (const SensorFaultInjector* inj = system_->sensor_fault_injector()) {
        footer.have_sensor_counters = true;
        footer.sensor_counters = inj->counters();
      }
      footer.digest = result.digest;
      footer.flight_digest = result.flight_digest;
      footer.metrics_digest = result.metrics.Digest();
      footer.trace_hash = trace_hash;
      footer.completed = result.completed;
      std::string bytes = recorder_->Finalize(footer);
      result.replay.recorded = true;
      result.replay.log_bytes = bytes.size();
      result.replay.ticks = recorder_->tick_count();
      config_.record_into->Put(ctx_.seed, std::move(bytes));
    }
  }

  // First crash index this life consumed, plus one — the next attempt's
  // crash cursor.
  int next_crash_cursor() const { return crash_fired_index_ + 1; }
  bool fixed_point_ok() const { return fixed_point_ok_; }
  bool cloned() const { return cloned_; }
  bool built_template() const { return built_template_; }
  uint64_t boot_ns() const { return boot_ns_; }
  uint64_t fly_ns() const { return fly_ns_; }

 private:
  void ArmPoll(SimTime at) {
    poll_event_ = clock_.ScheduleAt(at, [this] { PollCancel(); });
  }

  void PollCancel() {
    if (ctx_.ShouldCancel()) {
      system_->RequestAbort("fleet cancelled");
      return;
    }
    ArmPoll(clock_.now() + Seconds(1));
  }

  void ArmChaosCrash(size_t k, SimTime at) {
    chaos_events_[k] = clock_.ScheduleAt(at, [this] {
      // A crash only lands on a running life; between backoff and restart
      // the container is already down and the scheduled crash is a no-op.
      (void)system_->runtime().CrashContainer(chaos_payload_);
    });
  }

  // The crash schedule is config, not world state: crash events are never
  // persisted in checkpoints and already-consumed crashes are never armed
  // again. The surviving timeline therefore dispatches zero crash events —
  // which is what keeps a recovered world's events_run (and the sampled
  // clock trace) bit-identical to the uninterrupted run's.
  void ArmCrashEvents() {
    crash_events_.assign(config_.crash_at_s.size(), 0);
    for (size_t k = static_cast<size_t>(crashes_consumed_);
         k < config_.crash_at_s.size(); ++k) {
      crash_events_[k] =
          clock_.ScheduleAt(SecondsF(config_.crash_at_s[k]), [this, k] {
            OnCrashEvent(static_cast<int>(k));
          });
    }
  }

  void OnCrashEvent(int k) {
    crashed_ = true;
    crash_fired_index_ = std::max(crash_fired_index_, k);
  }

  void MaybeCheckpoint(CheckpointStore* store) {
    if (store == nullptr || !config_.checkpoint.enabled()) {
      return;
    }
    const MissionProgress& progress = system_->mission_progress();
    bool due = !have_checkpoint_;  // Always capture a first checkpoint.
    if (!due && config_.checkpoint.at_phase_boundaries &&
        progress.phase != last_checkpoint_phase_) {
      due = true;
    }
    if (!due && config_.checkpoint.period_s > 0 &&
        clock_.now() >=
            last_checkpoint_time_ + SecondsF(config_.checkpoint.period_s)) {
      due = true;
    }
    if (!due) {
      return;
    }
    store->Put(clock_.now(), Capture(BlobKind::kCheckpoint));
    have_checkpoint_ = true;
    last_checkpoint_time_ = clock_.now();
    last_checkpoint_phase_ = progress.phase;
  }

  // What a blob holds. A template is the post-boot/pre-deploy boundary,
  // captured once per family by the elected builder before any per-world
  // wiring: the trace ring (warmup events included, so a traced clone
  // exports the identical text), the executed-event count and the system.
  // A checkpoint is the complete world mid-mission.
  enum class BlobKind { kTemplate, kCheckpoint };

  // Identity a blob of |kind| carries: a template belongs to the canonical
  // boot of its config family, a checkpoint to this (config, seed) world.
  CheckpointHeader HeaderFor(BlobKind kind) const {
    CheckpointHeader header;
    header.seed = kind == BlobKind::kTemplate ? kCanonicalBootSeed : ctx_.seed;
    header.world_fingerprint =
        kind == BlobKind::kTemplate ? template_fp_ : fingerprint_;
    return header;
  }

  // The one capture flow: header, body, timer table. Pure reads — taking a
  // checkpoint never perturbs the world, which is what lets checkpoint
  // cadence vary without moving the digest.
  std::string Capture(BlobKind kind) {
    SnapshotWriter w;
    TimerRegistry timers;
    CheckpointHeader header = HeaderFor(kind);
    header.sim_time = clock_.now();
    header.Save(w);
    SaveArchive ar(w, timers, clock_);
    uint64_t events_run = clock_.events_run();
    (void)VisitBody(ar, kind, events_run);
    timers.Persist(w);
    return w.Take();
  }

  // The one overlay flow, on top of a freshly built world (a clone's
  // structure-only boot, or a full rebuild for a mission resume): header
  // validation, body (which binds each timer key it visits to its re-arm),
  // clock rewind, timer re-arm, trailing-bytes check.
  Status Overlay(BlobKind kind, const std::string& blob) {
    SnapshotReader r(blob);
    const CheckpointHeader expected = HeaderFor(kind);
    CheckpointHeader header;
    RETURN_IF_ERROR(
        header.Load(r, expected.seed, expected.world_fingerprint));
    TimerRearmer rearmer;
    LoadArchive ar(r, rearmer);
    uint64_t events_run = 0;
    RETURN_IF_ERROR(VisitBody(ar, kind, events_run));
    // Drops every event the build armed; the timer table re-creates the
    // ones that were pending at capture.
    clock_.ResetForRestore(header.sim_time, events_run);
    RETURN_IF_ERROR(rearmer.Replay(r));
    if (r.remaining() != 0) {
      return InvalidArgumentError(
          "snapshot has " + std::to_string(r.remaining()) +
          " trailing bytes after the timer table");
    }
    return OkStatus();
  }

  template <class Ar>
  Status VisitBody(Ar& ar, BlobKind kind, uint64_t& events_run) {
    if (kind == BlobKind::kCheckpoint) {
      RETURN_IF_ERROR(VisitWorld(ar, events_run));
    }
    if (ar.Present(trace_ != nullptr, "trace")) {
      RETURN_IF_ERROR(trace_->Visit(ar));
    }
    if (kind == BlobKind::kTemplate) {
      ar.U64(events_run);
    }
    return system_->Visit(ar);
  }

  // World-level state around the system: downlink counters, the cancel
  // poll, chaos-loop crash events, the chaos supervisor, link-fault
  // counters, and the downlink channel + tunnels.
  template <class Ar>
  Status VisitWorld(Ar& ar, uint64_t& events_run) {
    ar.Section("WRLD");
    ar.U64(events_run);
    ar.U64(frames_down_);
    ar.U64(bytes_down_);
    bool pending = ar.Timer("world.poll", poll_event_,
                            [this](SimTime at) { ArmPoll(at); });
    ar.Bool(pending);
    ar.Match(chaos_events_.size(), "chaos-loop event count");
    for (size_t k = 0; k < chaos_events_.size(); ++k) {
      pending = ar.Timer("world.chaosloop." + std::to_string(k),
                         chaos_events_[k],
                         [this, k](SimTime at) { ArmChaosCrash(k, at); });
      ar.Bool(pending);
    }
    if (ar.Present(chaos_supervisor_ != nullptr, "chaos-supervisor")) {
      RETURN_IF_ERROR(chaos_supervisor_->Visit(ar));
    }
    if (ar.Present(faulty_link_ != nullptr, "net fault plan")) {
      RETURN_IF_ERROR(faulty_link_->Visit(ar));
    }
    RETURN_IF_ERROR(downlink_->Visit(ar, "net.down"));
    RETURN_IF_ERROR(tunnel_tx_->Visit(ar));
    return tunnel_rx_->Visit(ar);
  }

  const FleetWorldConfig& config_;
  const WorldContext& ctx_;
  const int crashes_consumed_;
  const uint64_t fingerprint_;
  uint64_t template_fp_ = 0;

  SimClock clock_;
  std::unique_ptr<TraceRecorder> owned_trace_;
  TraceRecorder* trace_ = nullptr;
  std::unique_ptr<AnDroneSystem> system_;
  std::vector<VirtualDroneInstance*> tenants_;
  std::vector<PlannerJob> jobs_;
  int tenants_rejected_ = 0;
  std::unique_ptr<ContainerSupervisor> chaos_supervisor_;
  ContainerId chaos_payload_ = 0;
  std::vector<EventId> chaos_events_;
  std::unique_ptr<LinkModel> link_;
  std::unique_ptr<FaultyLinkModel> faulty_link_;
  std::unique_ptr<NetworkChannel> downlink_;
  std::unique_ptr<VpnTunnel> tunnel_tx_;
  std::unique_ptr<VpnTunnel> tunnel_rx_;
  uint64_t frames_down_ = 0;
  uint64_t bytes_down_ = 0;
  EventId poll_event_ = 0;
  std::vector<EventId> crash_events_;

  bool crashed_ = false;
  int crash_fired_index_ = -1;

  bool have_checkpoint_ = false;
  SimTime last_checkpoint_time_ = 0;
  MissionProgress::Phase last_checkpoint_phase_ = MissionProgress::Phase::kIdle;
  bool fixed_point_ok_ = true;

  FlightExecutionReport flight_report_;
  bool flight_ok_ = true;

  // Record/replay engine (DESIGN.md §15). The log view is shared with the
  // store's cache (and any sibling replays of the same seed); each tick
  // decodes into |replay_sample_|.
  std::shared_ptr<const ReplayLog> replay_log_;
  uint64_t replay_cursor_ = 0;
  FlightPlaneSample replay_sample_;
  std::unique_ptr<ReplayLogWriter> recorder_;

  // Provisioning telemetry (side-struct data; never digested).
  bool cloned_ = false;
  bool built_template_ = false;
  uint64_t boot_ns_ = 0;
  uint64_t fly_ns_ = 0;
};

}  // namespace

WorldResult RunFleetWorld(const FleetWorldConfig& config,
                          const WorldContext& ctx) {
  WorldResult result;
  result.index = ctx.index;
  result.seed = ctx.seed;

  // The replay engine and the crash fault family are mutually exclusive: a
  // recovery loop re-runs ticks from the last checkpoint, which would
  // duplicate recorded samples (record) or desynchronize the tick cursor
  // (replay). Reject the combination loudly instead of corrupting a log.
  if ((config.record_into != nullptr || config.replay_from != nullptr ||
       config.fork_blob != nullptr) &&
      !config.crash_at_s.empty()) {
    ALOG(kError, "fleet")
        << "world " << ctx.index
        << ": record/replay/fork cannot be combined with crash_at_s";
    result.infra_failure = true;
    return result;
  }

  // Checkpoints and the restore budget outlive individual attempts — a
  // crash kills the world, not its persisted state. A caller-owned sink
  // (fork-and-explore harvesting decision points) substitutes for the
  // run-local store when configured.
  CheckpointStore local_store;
  CheckpointStore& store =
      config.checkpoint_sink != nullptr ? *config.checkpoint_sink : local_store;
  CheckpointStore* store_ptr = config.checkpoint.enabled() ? &store : nullptr;
  int crashes_consumed = 0;

  for (;;) {
    WorldAttempt attempt(config, ctx, crashes_consumed);
    if (!attempt.Build().ok()) {
      result.infra_failure = true;
      return result;
    }
    bool resumed = false;
    if (config.fork_blob != nullptr) {
      if (!attempt.Resume(*config.fork_blob, config.fork_reseed).ok()) {
        result.infra_failure = true;
        return result;
      }
      resumed = true;
    } else if (crashes_consumed > 0 && store.count() > 0) {
      auto blob = store.Latest();
      if (!blob.ok() || !attempt.Resume(*blob, /*reseed=*/0).ok()) {
        result.infra_failure = true;
        return result;
      }
      resumed = true;
      ++result.recovery.restores;
      result.recovery.fixed_point_ok =
          result.recovery.fixed_point_ok && attempt.fixed_point_ok();
    } else if (crashes_consumed > 0) {
      // Crashed before the first checkpoint: the only recovery is to re-fly
      // from boot. Determinism makes that exact, just slower.
      ++result.recovery.replays_from_boot;
    }
    Status flight = attempt.Fly(resumed, store_ptr);
    // Provisioning rollup across attempts (a recovery loop boots several
    // lives; their wall costs sum). Side-struct only — see Provision.
    result.provision.cloned = result.provision.cloned || attempt.cloned();
    result.provision.built_template =
        result.provision.built_template || attempt.built_template();
    result.provision.boot_ns += attempt.boot_ns();
    result.provision.fly_ns += attempt.fly_ns();
    if (flight.code() == StatusCode::kCancelled) {
      ++result.recovery.crashes;
      crashes_consumed = attempt.next_crash_cursor();
      if (result.recovery.crashes > config.max_restores) {
        // Restore budget spent: the world stays down. That is a scenario
        // outcome (completed = false), not an infrastructure failure — the
        // crashed attempt's counters/metrics/trace still export for triage.
        result.recovery.gave_up = true;
        attempt.Finish(result);
        attempt.FinalizeReplay(result);
        result.completed = false;
        break;
      }
      continue;
    }
    if (!flight.ok()) {
      result.infra_failure = true;
      return result;
    }
    attempt.Finish(result);
    attempt.FinalizeReplay(result);
    break;
  }
  result.recovery.checkpoints_saved = store.count();
  result.recovery.checkpoint_bytes = static_cast<uint64_t>(store.latest_bytes());
  return result;
}

Status VerifyFleetCheckpoint(const FleetWorldConfig& config,
                             const WorldContext& ctx,
                             const std::string& blob) {
  WorldAttempt attempt(config, ctx, /*crashes_consumed=*/0);
  RETURN_IF_ERROR(attempt.Build());
  return attempt.Resume(blob, /*reseed=*/0);
}

WorldFn MakeFleetWorld(const FleetWorldConfig& config) {
  return [config](const WorldContext& ctx) {
    return RunFleetWorld(config, ctx);
  };
}

}  // namespace androne
