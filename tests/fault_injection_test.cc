// Chaos tests: scripted network faults against the full control chain
// (a ground station -> faulty duplex LTE channel -> MAVProxy -> flight
// controller) plus crash-injection and supervised restart of containers.
// The ground station is a fixture here: production planner traffic goes
// through AnDroneSystem's own reliable sender, not through a GCS model.
// Every scenario runs on the simulated clock with fixed seeds, so the
// whole chaos schedule replays deterministically.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/container/container.h"
#include "src/container/image_store.h"
#include "src/container/runtime.h"
#include "src/container/supervisor.h"
#include "src/flight/sitl.h"
#include "src/mavlink/frame.h"
#include "src/mavlink/reliable.h"
#include "src/mavproxy/mavproxy.h"
#include "src/net/channel.h"
#include "src/net/fault_injector.h"
#include "src/snapshot/archive.h"
#include "src/snapshot/snapshot.h"

namespace androne {
namespace {

const GeoPoint kBase{43.6084298, -85.8110359, 0};
const GeoPoint kWaypointB{43.6076409, -85.8154457, 15};

// ----------------------------------------------------- FaultPlan mechanics.

TEST(FaultPlanTest, OutageWindowsRespectTimeAndDirection) {
  FaultPlan plan;
  plan.AddOutage(Seconds(10), Seconds(5));
  plan.AddPartition(Seconds(30), Seconds(5), LinkDirection::kReverse);

  EXPECT_FALSE(plan.InOutage(Seconds(9), LinkDirection::kForward));
  EXPECT_TRUE(plan.InOutage(Seconds(10), LinkDirection::kForward));
  EXPECT_TRUE(plan.InOutage(Seconds(12), LinkDirection::kReverse));
  EXPECT_FALSE(plan.InOutage(Seconds(15), LinkDirection::kForward));  // End.

  // The partition blacks out only the reverse direction.
  EXPECT_FALSE(plan.InOutage(Seconds(32), LinkDirection::kForward));
  EXPECT_TRUE(plan.InOutage(Seconds(32), LinkDirection::kReverse));
}

TEST(FaultPlanTest, OverlappingBurstLossCombines) {
  FaultPlan plan;
  plan.AddBurstLoss(Seconds(0), Seconds(10), 0.5);
  plan.AddBurstLoss(Seconds(5), Seconds(10), 0.5);

  EXPECT_DOUBLE_EQ(plan.BurstLossProbability(Seconds(1),
                                             LinkDirection::kForward), 0.5);
  // Both windows cover t=6: survive probability 0.25.
  EXPECT_DOUBLE_EQ(plan.BurstLossProbability(Seconds(6),
                                             LinkDirection::kForward), 0.75);
  EXPECT_DOUBLE_EQ(plan.BurstLossProbability(Seconds(20),
                                             LinkDirection::kForward), 0.0);
}

TEST(FaultPlanTest, LatencyInflationScalesAndAdds) {
  FaultPlan plan;
  plan.AddLatencyInflation(Seconds(0), Seconds(10), 3.0, Millis(50));
  EXPECT_EQ(plan.InflateLatency(Seconds(1), LinkDirection::kForward,
                                Millis(10)),
            Millis(80));
  EXPECT_EQ(plan.InflateLatency(Seconds(11), LinkDirection::kForward,
                                Millis(10)),
            Millis(10));
}

TEST(FaultyLinkModelTest, OutageDropsEverythingAndCounts) {
  SimClock clock;
  WiredModel wired;
  FaultPlan plan;
  plan.AddOutage(Seconds(1), Seconds(1));
  FaultyLinkModel faulty(&wired, &plan, &clock);
  Rng rng(7);

  EXPECT_FALSE(faulty.SampleLoss(rng));  // t=0: healthy.
  clock.RunFor(SecondsF(1.5));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(faulty.SampleLoss(rng));
  }
  EXPECT_EQ(faulty.counters().outage_losses, 20u);
  clock.RunFor(Seconds(1));
  EXPECT_FALSE(faulty.SampleLoss(rng));  // t=2.5: window over.
}

TEST(FaultyLinkModelTest, ChannelOverFaultyLinkLosesOnlyInWindow) {
  SimClock clock;
  WiredModel wired;
  FaultPlan plan;
  plan.AddOutage(Seconds(1), Seconds(1));
  FaultyLinkModel faulty(&wired, &plan, &clock);
  NetworkChannel channel(&clock, &faulty, 11);
  uint64_t received = 0;
  channel.SetReceiver([&](const std::vector<uint8_t>&) { ++received; });

  auto send_burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      channel.Send({0xAB});
    }
  };
  send_burst(10);
  clock.RunFor(SecondsF(1.5));  // Into the outage.
  send_burst(10);
  clock.RunFor(Seconds(2));
  send_burst(10);
  clock.RunAll();

  EXPECT_EQ(received, 20u);
  EXPECT_EQ(channel.lost(), 10u);
  EXPECT_EQ(faulty.counters().outage_losses, 10u);
}

// ------------------------------------------------ Chaos mission harness.

// The ground end of the chain: beacons 1 Hz GCS heartbeats as a real
// ground station does, delivers COMMAND_LONGs through an ack-tracked
// ReliableCommandSender, and records the SYS_STATUS sensor bits and
// STATUSTEXTs that come down the telemetry path.
class GroundStation {
 public:
  using FrameSink = std::function<void(const MavlinkFrame&)>;

  static constexpr uint8_t kSysid = 255;  // GCS convention.

  GroundStation(SimClock* clock, uint64_t seed)
      : clock_(clock), sender_(clock, seed) {}

  void SetUplink(FrameSink sink) {
    uplink_ = std::move(sink);
    // Passed through unchanged: CommandDeduper recognises a retransmission
    // by the original frame's seq, so restamping would make every retry
    // look like a fresh command.
    sender_.SetSendSink(uplink_);
  }

  void StartHeartbeat() {
    Heartbeat hb;
    hb.type = 6;       // MAV_TYPE_GCS.
    hb.autopilot = 8;  // MAV_AUTOPILOT_INVALID, as GCSs send.
    hb.system_status = static_cast<uint8_t>(MavState::kActive);
    Send(PackMessage(MavMessage{hb}));
    clock_->ScheduleAfter(Seconds(1), [this] { StartHeartbeat(); });
  }

  // SET_MODE and position targets have no MAVLink ack; callers re-send.
  void SendMode(CopterMode mode) {
    SetMode sm;
    sm.custom_mode = static_cast<uint32_t>(mode);
    Send(PackMessage(MavMessage{sm}));
  }
  void SendPositionTarget(double lat_deg, double lon_deg, double alt_m) {
    SetPositionTargetGlobalInt sp;
    sp.lat_int = static_cast<int32_t>(lat_deg * 1e7);
    sp.lon_int = static_cast<int32_t>(lon_deg * 1e7);
    sp.alt = static_cast<float>(alt_m);
    Send(PackMessage(MavMessage{sp}));
  }

  void HandleDownlinkFrame(const MavlinkFrame& frame) {
    sender_.HandleFrame(frame);
    auto message = UnpackMessage(frame);
    if (!message.ok()) {
      return;
    }
    if (const auto* ss = std::get_if<SysStatus>(&*message)) {
      sensors_present_ = ss->sensors_present;
      sensors_health_ = ss->sensors_health;
    } else if (const auto* st = std::get_if<StatusText>(&*message)) {
      status_texts_.push_back(st->text);
    }
  }

  ReliableCommandSender& sender() { return sender_; }
  uint32_t sensors_present() const { return sensors_present_; }
  uint32_t sensors_health() const { return sensors_health_; }
  const std::vector<std::string>& status_texts() const {
    return status_texts_;
  }

 private:
  void Send(MavlinkFrame frame) {
    frame.seq = tx_seq_++;
    frame.sysid = kSysid;
    uplink_(frame);
  }

  SimClock* clock_;
  FrameSink uplink_;
  ReliableCommandSender sender_;
  uint8_t tx_seq_ = 0;
  uint32_t sensors_present_ = 0;
  uint32_t sensors_health_ = 0;
  std::vector<std::string> status_texts_;
};

// Full control chain: GroundStation <-> faulty duplex LTE <-> MAVProxy
// <-> SITL flight stack.
class ChaosHarness {
 public:
  explicit ChaosHarness(uint64_t seed)
      : drone_(&clock_, kBase, seed),
        proxy_(&clock_),
        forward_(&lte_, &plan_, &clock_, LinkDirection::kForward),
        reverse_(&lte_, &plan_, &clock_, LinkDirection::kReverse),
        channel_(&clock_, &forward_, &reverse_, seed + 1),
        gcs_(&clock_, seed + 2) {
    // Drone side: proxy fronts the flight controller.
    proxy_.SetMasterSink([this](const MavlinkFrame& frame) {
      drone_.controller().HandleFrame(frame);
    });
    drone_.controller().SetSender([this](const MavlinkFrame& frame) {
      proxy_.HandleMasterFrame(frame);
    });
    // Uplink: ground -> drone planner endpoint.
    channel_.a_to_b.SetReceiver([this](const std::vector<uint8_t>& datagram) {
      up_parser_.Feed(datagram);
      for (const MavlinkFrame& frame : up_parser_.TakeFrames()) {
        proxy_.HandlePlannerFrame(frame);
      }
    });
    gcs_.SetUplink([this](const MavlinkFrame& frame) {
      channel_.a_to_b.Send(EncodeFrame(frame));
    });
    // Downlink: drone -> ground.
    proxy_.SetPlannerSink([this](const MavlinkFrame& frame) {
      channel_.b_to_a.Send(EncodeFrame(frame));
    });
    channel_.b_to_a.SetReceiver([this](const std::vector<uint8_t>& datagram) {
      down_parser_.Feed(datagram);
      for (const MavlinkFrame& frame : down_parser_.TakeFrames()) {
        gcs_.HandleDownlinkFrame(frame);
      }
    });
    clock_.RunFor(Seconds(2));  // Sensor warmup.
    gcs_.StartHeartbeat();
  }

  bool RunUntil(const std::function<bool()>& predicate, SimDuration timeout) {
    SimTime deadline = clock_.now() + timeout;
    while (clock_.now() < deadline) {
      if (predicate()) {
        return true;
      }
      clock_.RunUntil(clock_.now() + Millis(100));
    }
    return predicate();
  }

  // Flies to cruise altitude under reliable command delivery.
  void TakeoffTo(double altitude_m) {
    gcs_.SendMode(CopterMode::kGuided);
    CommandLong arm;
    arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
    arm.param1 = 1;
    gcs_.sender().SendCommand(arm);
    ASSERT_TRUE(RunUntil([this] { return drone_.controller().armed(); },
                         Seconds(10)));
    CommandLong takeoff;
    takeoff.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
    takeoff.param7 = static_cast<float>(altitude_m);
    gcs_.sender().SendCommand(takeoff);
    ASSERT_TRUE(RunUntil(
        [this, altitude_m] {
          return drone_.physics().truth().position.altitude_m >
                 altitude_m - 1.0;
        },
        Seconds(60)));
  }

  SimClock clock_;
  SitlDrone drone_;
  MavProxy proxy_;
  CellularLteModel lte_;
  FaultPlan plan_;
  FaultyLinkModel forward_;
  FaultyLinkModel reverse_;
  DuplexChannel channel_;
  GroundStation gcs_;
  MavlinkParser up_parser_;
  MavlinkParser down_parser_;
};

// A 10 s total outage in the middle of a guided cruise: nothing on board
// reacts to link silence, so the drone holds Guided and flies on toward
// the last target it heard; once the link returns, the ground side's
// re-sent target brings it to the waypoint.
TEST(ChaosMissionTest, GuidedFlightRidesOutATotalOutage) {
  ChaosHarness h(101);
  h.TakeoffTo(15.0);
  // Cruise toward the waypoint; the GCS re-sends the target at 1 Hz.
  for (int i = 0; i < 5; ++i) {
    h.gcs_.SendPositionTarget(kWaypointB.latitude_deg,
                              kWaypointB.longitude_deg, 15.0);
    h.clock_.RunFor(Seconds(1));
  }
  ASSERT_TRUE(h.drone_.controller().armed());

  // Script a 10 s blackout of both directions, starting now.
  const double remaining_at_outage = h.drone_.DistanceTo(kWaypointB);
  h.plan_.AddOutage(h.clock_.now(), Seconds(10));
  h.clock_.RunFor(Seconds(10));
  EXPECT_EQ(h.drone_.controller().mode(), CopterMode::kGuided);
  EXPECT_LT(h.drone_.DistanceTo(kWaypointB), remaining_at_outage);

  // The link is back; the ground side keeps re-sending the same target.
  bool arrived = false;
  for (int i = 0; i < 240 && !arrived; ++i) {
    h.gcs_.SendPositionTarget(kWaypointB.latitude_deg,
                              kWaypointB.longitude_deg, 15.0);
    h.clock_.RunFor(Seconds(1));
    arrived = h.drone_.DistanceTo(kWaypointB) < 3.0;
  }
  EXPECT_TRUE(arrived) << "remaining " << h.drone_.DistanceTo(kWaypointB);
  // Attribute the blackout: the faulty links dropped traffic in both
  // directions during the window.
  EXPECT_GT(h.forward_.counters().outage_losses, 0u);
  EXPECT_GT(h.reverse_.counters().outage_losses, 0u);
}

// An asymmetric partition that blacks out only the drone->ground direction:
// commands are delivered but every ack is lost, forcing retransmissions.
// The receive-side deduper must suppress the duplicates, so the camera
// command executes exactly once even though the wire carried it many times.
TEST(ChaosMissionTest, AckBlackoutRetriesExecuteExactlyOnce) {
  ChaosHarness h(202);
  int camera_triggers = 0;
  h.drone_.controller().SetCameraTrigger([&camera_triggers] {
    ++camera_triggers;
    return OkStatus();
  });

  // Black out the downlink (acks) for 3 s, starting now; the uplink stays up.
  h.plan_.AddPartition(h.clock_.now(), Seconds(3), LinkDirection::kReverse);
  CommandLong shoot;
  shoot.command = static_cast<uint16_t>(MavCmd::kDoDigicamControl);
  shoot.param5 = 1;
  h.gcs_.sender().SendCommand(shoot);

  ASSERT_TRUE(h.RunUntil([&] { return h.gcs_.sender().acked() == 1; },
                         Seconds(30)));
  EXPECT_EQ(camera_triggers, 1);
  EXPECT_GE(h.gcs_.sender().retransmissions(), 1u);
  EXPECT_GE(h.drone_.controller().duplicate_commands(), 1u);
  EXPECT_EQ(h.gcs_.sender().gave_up(), 0u);
  EXPECT_GT(h.reverse_.counters().outage_losses, 0u);
  EXPECT_EQ(h.forward_.counters().outage_losses, 0u);
}

// With no recovery before max_attempts the sender reports the command
// undeliverable instead of retrying forever.
TEST(ReliableDeliveryTest, SenderGivesUpAfterMaxAttempts) {
  ChaosHarness h(303);
  // Permanent blackout from here on.
  h.plan_.AddOutage(h.clock_.now(), Seconds(3600));
  bool resolved = false;
  bool delivered = true;
  h.gcs_.sender().SetCompletionCallback(
      [&](const CommandLong&, bool ok) { resolved = true; delivered = ok; });
  CommandLong arm;
  arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  arm.param1 = 1;
  h.gcs_.sender().SendCommand(arm);
  ASSERT_TRUE(h.RunUntil([&] { return resolved; }, Seconds(120)));
  EXPECT_FALSE(delivered);
  EXPECT_EQ(h.gcs_.sender().gave_up(), 1u);
  EXPECT_EQ(h.gcs_.sender().pending(), 0u);
  EXPECT_FALSE(h.drone_.controller().armed());
}

// A sender whose every transmission is lost, with a log of what it sent.
struct LossySender {
  struct Sent {
    SimTime at;
    MavlinkFrame frame;
    bool operator==(const Sent& o) const {
      return at == o.at && frame.seq == o.frame.seq &&
             frame.payload == o.frame.payload;
    }
  };
  SimClock clock;
  ReliableCommandSender sender{&clock, /*seed=*/61};
  std::vector<Sent> sent;

  LossySender() {
    sender.SetSendSink([this](const MavlinkFrame& frame) {
      sent.push_back({clock.now(), frame});
    });
  }

  // The sender's state followed by its timer table.
  std::string Save() {
    SnapshotWriter w;
    TimerRegistry timers;
    SaveArchive ar(w, timers, clock);
    EXPECT_TRUE(sender.Visit(ar).ok());
    timers.Persist(w);
    return w.Take();
  }

  // Load, clock rewind, timer re-arm.
  Status Restore(const std::string& blob, SimTime now, uint64_t events_run) {
    SnapshotReader r(blob);
    TimerRearmer rearmer;
    LoadArchive ar(r, rearmer);
    RETURN_IF_ERROR(sender.Visit(ar));
    clock.ResetForRestore(now, events_run);
    return rearmer.Replay(r);
  }
};

// A command awaiting its ack carries an armed retry timer: a restored
// sender saves back to the same bytes and retransmits exactly when, and
// exactly what, the original does.
TEST(ReliableDeliveryTest, PendingRetryRestoresAtItsDeadline) {
  LossySender original;
  CommandLong arm;
  arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  arm.param1 = 1;
  original.sender.SendCommand(arm);
  original.clock.RunFor(Millis(500));  // Past the first ack timeout.
  ASSERT_EQ(original.sender.retransmissions(), 1u);
  const std::string blob = original.Save();
  ASSERT_NE(blob.find("rel." + std::to_string(arm.command)),
            std::string::npos);

  LossySender restored;
  ASSERT_TRUE(restored
                  .Restore(blob, original.clock.now(),
                           original.clock.events_run())
                  .ok());
  EXPECT_EQ(restored.Save(), blob);
  original.sent.clear();
  original.clock.RunFor(Seconds(60));
  restored.clock.RunFor(Seconds(60));
  EXPECT_EQ(original.sender.gave_up(), 1u);
  EXPECT_EQ(restored.sender.gave_up(), 1u);
  EXPECT_EQ(restored.sent.size(), 8u);
  EXPECT_TRUE(restored.sent == original.sent);
}

// A combined chaos script — link *and* sensor fault windows composed on
// the same simulated time base via the shared util/fault_plan vocabulary.
// A GPS glitch engages the onboard safety supervisor (tenant commands
// suspended, STATUSTEXT up the telemetry path, GPS health bit dropped from
// SYS_STATUS), an overlapping outage cuts the ground link, and after both
// clear the tenant gets control back.
TEST(ChaosMissionTest, CombinedLinkAndSensorChaosSurfacesToGroundControl) {
  ChaosHarness h(202);
  h.drone_.controller().SetSafetyCallbacks(
      [&] { h.proxy_.OnSafetyOverride(); },
      [&] { h.proxy_.OnSafetyRelease(); });
  VirtualFlightController* vfc =
      h.proxy_.CreateVfc(3, CommandWhitelist::FromTemplate(
                                WhitelistTemplate::kStandard),
                         /*continuous_position=*/false);
  vfc->GrantControl();
  h.TakeoffTo(12.0);
  ASSERT_TRUE(vfc->commands_enabled());

  // One chaos script, two layers, one timeline.
  SimTime now = h.clock_.now();
  h.drone_.sensor_faults().AddGpsJump(now, Seconds(8), 100.0, 60.0);
  h.plan_.AddOutage(now + Seconds(2), Seconds(4));

  // The jumping GPS gets excluded, which engages the safety override and
  // suspends tenant control through the proxy.
  ASSERT_TRUE(h.RunUntil(
      [&] { return h.drone_.controller().safety().overriding(); },
      Seconds(5)));
  EXPECT_FALSE(vfc->commands_enabled());

  // The degraded sensor reaches the ground as a dropped GPS health bit in
  // SYS_STATUS (sent before the outage window opens).
  ASSERT_TRUE(h.RunUntil(
      [&] {
        return h.gcs_.sensors_present() != 0 &&
               (h.gcs_.sensors_health() & kSensorGps) == 0;
      },
      Seconds(5)));

  // Both fault layers clear; the supervisor releases after its hysteresis.
  ASSERT_TRUE(h.RunUntil(
      [&] { return !h.drone_.controller().safety().overriding(); },
      Seconds(30)));
  EXPECT_TRUE(vfc->commands_enabled());

  // The override narrated itself down the telemetry path.
  bool saw_override = false, saw_release = false;
  for (const std::string& text : h.gcs_.status_texts()) {
    if (text.find("Safety override: level-hold") != std::string::npos) {
      saw_override = true;
    }
    if (text.find("Safety release") != std::string::npos) {
      saw_release = true;
    }
  }
  EXPECT_TRUE(saw_override);
  EXPECT_TRUE(saw_release);

  // Both injectors actually fired.
  EXPECT_GT(h.forward_.counters().outage_losses, 0u);
  EXPECT_GT(h.drone_.sensor_fault_injector().counters().corrupted_reads, 0u);
}

// ------------------------------------------- Container crash supervision.

LayerFiles BaseFiles() {
  return LayerFiles{
      {"/system/build.prop", {"android-things-1.0.3", false}},
  };
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest() : runtime_(&driver_, &store_) {
    LayerId base = store_.AddLayer(BaseFiles());
    image_ = store_.CreateImage("things-base", {base}).value();
  }

  Container* StartedContainer(const std::string& name) {
    Container* c = runtime_
                       .CreateContainer(name, ContainerKind::kVirtualDrone,
                                        image_)
                       .value();
    EXPECT_TRUE(runtime_.StartContainer(c->id()).ok());
    return c;
  }

  SimClock clock_;
  BinderDriver driver_;
  ImageStore store_;
  ContainerRuntime runtime_;
  ImageId image_;
};

TEST_F(SupervisorTest, CrashKillsProcessesButNotSiblings) {
  Container* victim = StartedContainer("vd1");
  Container* sibling = StartedContainer("vd2");
  size_t sibling_procs = sibling->processes().size();

  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  EXPECT_TRUE(victim->processes().empty());
  EXPECT_EQ(victim->crash_count(), 1u);
  EXPECT_DOUBLE_EQ(victim->MemoryUsageMb(), 0.0);
  // Siblings keep flying.
  EXPECT_EQ(sibling->state(), ContainerState::kRunning);
  EXPECT_EQ(sibling->processes().size(), sibling_procs);

  // Crashing a non-running container is refused.
  EXPECT_EQ(runtime_.CrashContainer(victim->id()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SupervisorTest, SupervisorRestartsCrashedContainerWithBackoff) {
  ContainerSupervisor supervisor(&clock_, &runtime_, SupervisorPolicy{}, 41);
  Container* victim = StartedContainer("vd1");
  Container* sibling = StartedContainer("vd2");
  supervisor.Watch(victim->id());

  clock_.RunFor(Seconds(5));
  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  SimTime crashed_at = clock_.now();

  // The restart happens after the first backoff delay, not instantly.
  clock_.RunFor(Millis(100));
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  clock_.RunFor(Seconds(2));
  EXPECT_EQ(victim->state(), ContainerState::kRunning);
  EXPECT_EQ(supervisor.restarts(), 1u);
  ASSERT_EQ(supervisor.episodes().size(), 1u);
  EXPECT_GT(supervisor.episodes()[0].restarted_at, crashed_at);
  EXPECT_EQ(sibling->state(), ContainerState::kRunning);

  // A second crash after a long stable life restarts with a reset streak.
  clock_.RunFor(Seconds(60));
  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  clock_.RunFor(Seconds(2));
  EXPECT_EQ(victim->state(), ContainerState::kRunning);
  EXPECT_EQ(supervisor.episodes()[1].streak, 0);
}

TEST_F(SupervisorTest, SupervisorGivesUpAfterRepeatedCrashes) {
  SupervisorPolicy policy;
  policy.max_consecutive_restarts = 3;
  ContainerSupervisor supervisor(&clock_, &runtime_, policy, 43);
  Container* victim = StartedContainer("vd1");
  supervisor.Watch(victim->id());

  // Crash-loop: kill it again shortly after it comes back, always inside
  // the stability window so the failure streak keeps growing.
  for (int i = 0; i < 10 && !supervisor.GaveUpOn(victim->id()); ++i) {
    if (victim->state() == ContainerState::kRunning) {
      ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
    }
    clock_.RunFor(Seconds(10));
  }
  EXPECT_TRUE(supervisor.GaveUpOn(victim->id()));
  EXPECT_EQ(supervisor.gave_up(), 1u);
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  EXPECT_EQ(supervisor.restarts(), 3u);

  // Unwatched crashes never restart.
  Container* loner = StartedContainer("vd2");
  ASSERT_TRUE(runtime_.CrashContainer(loner->id()).ok());
  clock_.RunFor(Seconds(120));
  EXPECT_EQ(loner->state(), ContainerState::kCrashed);
}

// The give-up threshold is exact: with max_consecutive_restarts = 2 the
// supervisor performs exactly two restarts; the third crash of the streak
// is abandoned without a restart being scheduled.
TEST_F(SupervisorTest, GiveUpThresholdBoundaryIsExact) {
  SupervisorPolicy policy;
  policy.max_consecutive_restarts = 2;
  ContainerSupervisor supervisor(&clock_, &runtime_, policy, 47);
  Container* victim = StartedContainer("vd1");
  supervisor.Watch(victim->id());

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(victim->state(), ContainerState::kRunning);
    ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
    clock_.RunFor(Seconds(10));  // Short of the 30 s stable life: streak grows.
  }
  EXPECT_TRUE(supervisor.GaveUpOn(victim->id()));
  EXPECT_EQ(supervisor.restarts(), 2u);
  EXPECT_EQ(supervisor.gave_up(), 1u);
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  ASSERT_EQ(supervisor.episodes().size(), 3u);
  EXPECT_LT(supervisor.episodes()[2].restarted_at, 0);  // Never restarted.

  // Give-up is terminal: a fresh crash listener event for this id (none
  // will come — it is already crashed) and time passing change nothing.
  clock_.RunFor(Seconds(120));
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  EXPECT_EQ(supervisor.restarts(), 2u);
}

// Shutdown race: the operator removes the crashed container while the
// supervisor's restart is still pending in the backoff window. Every
// restart attempt then fails (the id is gone); the supervisor treats each
// failed start as an immediate crash of the new life and gives up cleanly
// instead of retrying forever.
TEST_F(SupervisorTest, RestartDuringShutdownFailsCleanlyAndGivesUp) {
  SupervisorPolicy policy;
  policy.max_consecutive_restarts = 2;
  ContainerSupervisor supervisor(&clock_, &runtime_, policy, 53);
  Container* victim = StartedContainer("vd1");
  ContainerId id = victim->id();
  supervisor.Watch(id);

  ASSERT_TRUE(runtime_.CrashContainer(id).ok());
  // Tear the container down during the pending-restart window.
  ASSERT_TRUE(runtime_.RemoveContainer(id).ok());

  clock_.RunFor(Seconds(60));
  EXPECT_TRUE(supervisor.GaveUpOn(id));
  EXPECT_EQ(supervisor.restarts(), 0u);  // No attempt ever succeeded.
  EXPECT_EQ(supervisor.gave_up(), 1u);
  for (const RestartEpisode& episode : supervisor.episodes()) {
    EXPECT_LT(episode.restarted_at, 0);
  }
}

// Unwatch while a restart is pending cancels it: the scheduled attempt
// finds the container untracked and does nothing.
TEST_F(SupervisorTest, UnwatchWhileRestartPendingCancelsIt) {
  ContainerSupervisor supervisor(&clock_, &runtime_, SupervisorPolicy{}, 59);
  Container* victim = StartedContainer("vd1");
  supervisor.Watch(victim->id());

  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  supervisor.Unwatch(victim->id());
  clock_.RunFor(Seconds(120));
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  EXPECT_EQ(supervisor.restarts(), 0u);
  EXPECT_FALSE(supervisor.GaveUpOn(victim->id()));
}

// A healthy interval resets the backoff schedule itself, not just the
// give-up counter: after a stable life the next restart uses the base
// delay again rather than the grown exponential one.
TEST_F(SupervisorTest, BackoffDelayResetsAfterStableLife) {
  SupervisorPolicy policy;
  policy.backoff.jitter_fraction = 0.0;  // Deterministic delays.
  policy.max_consecutive_restarts = 10;
  ContainerSupervisor supervisor(&clock_, &runtime_, policy, 61);
  Container* victim = StartedContainer("vd1");
  supervisor.Watch(victim->id());

  // Two quick crashes: the second restart waits base * multiplier = 1 s.
  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  clock_.RunFor(Seconds(5));
  ASSERT_EQ(victim->state(), ContainerState::kRunning);
  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  clock_.RunFor(Millis(700));  // Past base (500 ms), short of 1 s.
  EXPECT_EQ(victim->state(), ContainerState::kCrashed);
  clock_.RunFor(Millis(500));
  ASSERT_EQ(victim->state(), ContainerState::kRunning);

  // A stable life (>= 30 s) forgives the streak; the next crash restarts
  // after the base delay again.
  clock_.RunFor(Seconds(60));
  ASSERT_TRUE(runtime_.CrashContainer(victim->id()).ok());
  clock_.RunFor(Millis(700));
  EXPECT_EQ(victim->state(), ContainerState::kRunning);
  ASSERT_EQ(supervisor.episodes().size(), 3u);
  EXPECT_EQ(supervisor.episodes()[2].streak, 0);
}

}  // namespace
}  // namespace androne
