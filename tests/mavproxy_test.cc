#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include "src/flight/sitl.h"
#include "src/mavproxy/mavproxy.h"
#include "src/mavproxy/vfc.h"
#include "src/mavproxy/whitelist.h"

namespace androne {
namespace {

const GeoPoint kHome{43.6084298, -85.8110359, 0.0};
const GeoPoint kWaypointA{43.6084298, -85.8110359, 15.0};

MavlinkFrame GotoFrame(const GeoPoint& target) {
  return PackMessage(MavMessage{GotoTarget(target)});
}

MavlinkFrame CommandFrame(MavCmd cmd, float p1 = 0, float p7 = 0) {
  CommandLong c;
  c.command = static_cast<uint16_t>(cmd);
  c.param1 = p1;
  c.param7 = p7;
  return PackMessage(MavMessage{c});
}

MavlinkFrame ModeFrame(CopterMode mode) {
  SetMode sm;
  sm.custom_mode = static_cast<uint32_t>(mode);
  return PackMessage(MavMessage{sm});
}

// ------------------------------------------------------------ Whitelist.

TEST(WhitelistTest, GuidedOnlyAllowsOnlyTargetsAndSpeed) {
  auto wl = CommandWhitelist::FromTemplate(WhitelistTemplate::kGuidedOnly);
  EXPECT_TRUE(wl.Allows(MavMessage{SetPositionTargetGlobalInt{}}));
  CommandLong speed;
  speed.command = static_cast<uint16_t>(MavCmd::kDoChangeSpeed);
  EXPECT_TRUE(wl.Allows(MavMessage{speed}));
  EXPECT_FALSE(wl.Allows(MavMessage{SetMode{}}));
  EXPECT_FALSE(wl.Allows(MavMessage{RcChannelsOverride{}}));
  CommandLong takeoff;
  takeoff.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  EXPECT_FALSE(wl.Allows(MavMessage{takeoff}));
}

TEST(WhitelistTest, StandardAllowsRestrictedModes) {
  auto wl = CommandWhitelist::FromTemplate(WhitelistTemplate::kStandard);
  SetMode guided;
  guided.custom_mode = static_cast<uint32_t>(CopterMode::kGuided);
  EXPECT_TRUE(wl.Allows(MavMessage{guided}));
  SetMode auto_mode;
  auto_mode.custom_mode = static_cast<uint32_t>(CopterMode::kAuto);
  EXPECT_FALSE(wl.Allows(MavMessage{auto_mode}));  // Planner owns AUTO.
  EXPECT_FALSE(wl.Allows(MavMessage{RcChannelsOverride{}}));
}

TEST(WhitelistTest, FullAllowsRcButNeverArming) {
  auto wl = CommandWhitelist::FromTemplate(WhitelistTemplate::kFull);
  EXPECT_TRUE(wl.Allows(MavMessage{RcChannelsOverride{}}));
  SetMode rtl;
  rtl.custom_mode = static_cast<uint32_t>(CopterMode::kRtl);
  EXPECT_TRUE(wl.Allows(MavMessage{rtl}));
  CommandLong arm;
  arm.command = static_cast<uint16_t>(MavCmd::kComponentArmDisarm);
  arm.param1 = 1;
  EXPECT_FALSE(wl.Allows(MavMessage{arm}));  // No template allows arming.
}

TEST(WhitelistTest, CustomizationOverridesTemplate) {
  auto wl = CommandWhitelist::FromTemplate(WhitelistTemplate::kGuidedOnly);
  wl.AllowCommand(MavCmd::kNavTakeoff);
  CommandLong takeoff;
  takeoff.command = static_cast<uint16_t>(MavCmd::kNavTakeoff);
  EXPECT_TRUE(wl.Allows(MavMessage{takeoff}));
  wl.DenyCommand(MavCmd::kDoChangeSpeed);
  CommandLong speed;
  speed.command = static_cast<uint16_t>(MavCmd::kDoChangeSpeed);
  EXPECT_FALSE(wl.Allows(MavMessage{speed}));
}

// ------------------------------------------------------------ VFC + proxy.

class VfcFixture : public ::testing::Test {
 protected:
  VfcFixture() : drone_(&clock_, kHome, 5), proxy_(&clock_) {
    // Wire proxy <-> flight controller.
    proxy_.SetMasterSink([this](const MavlinkFrame& f) {
      drone_.controller().HandleFrame(f);
    });
    drone_.controller().SetSender([this](const MavlinkFrame& f) {
      proxy_.HandleMasterFrame(f);
    });
    vfc_ = proxy_.CreateVfc(
        /*tenant_id=*/1,
        CommandWhitelist::FromTemplate(WhitelistTemplate::kStandard),
        /*continuous_position=*/false);
    vfc_->SetClientSink([this](const MavlinkFrame& f) {
      auto m = UnpackMessage(f);
      if (m.ok()) {
        client_rx_.push_back(*m);
      }
    });
    vfc_->SetAssignedWaypoint(kWaypointA);
    clock_.RunFor(Seconds(2));  // GPS warmup.
  }

  // Finds the latest message of type T received by the client.
  template <typename T>
  std::optional<T> LatestClientMessage() {
    for (auto it = client_rx_.rbegin(); it != client_rx_.rend(); ++it) {
      if (const T* m = std::get_if<T>(&*it)) {
        return *m;
      }
    }
    return std::nullopt;
  }

  void TakeOffViaPlanner(double alt) {
    proxy_.HandlePlannerFrame(ModeFrame(CopterMode::kGuided));
    proxy_.HandlePlannerFrame(
        CommandFrame(MavCmd::kComponentArmDisarm, /*p1=*/1));
    proxy_.HandlePlannerFrame(CommandFrame(MavCmd::kNavTakeoff, 0,
                                           static_cast<float>(alt)));
    ASSERT_TRUE(drone_.RunUntil(
        [&] {
          return std::fabs(drone_.physics().truth().position.altitude_m -
                           alt) < 1.0;
        },
        Seconds(60)));
  }

  SimClock clock_;
  SitlDrone drone_;
  MavProxy proxy_;
  VirtualFlightController* vfc_ = nullptr;
  std::vector<MavMessage> client_rx_;
};

TEST_F(VfcFixture, PlannerHasUnrestrictedAccess) {
  TakeOffViaPlanner(15.0);
  EXPECT_TRUE(drone_.controller().armed());
  EXPECT_EQ(drone_.controller().mode(), CopterMode::kGuided);
}

TEST_F(VfcFixture, IdleVfcPresentsDroneParkedAtWaypoint) {
  clock_.RunFor(Seconds(3));  // Telemetry flows.
  auto view = LatestClientMessage<GlobalPositionInt>();
  ASSERT_TRUE(view.has_value());
  // The real drone sits at home; the tenant's view is parked at *their*
  // waypoint, on the ground.
  EXPECT_NEAR(view->lat / 1e7, kWaypointA.latitude_deg, 1e-6);
  EXPECT_EQ(view->relative_alt, 0);
  auto hb = LatestClientMessage<Heartbeat>();
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->system_status, static_cast<uint8_t>(MavState::kStandby));
  EXPECT_EQ(hb->base_mode & kMavModeFlagSafetyArmed, 0);
}

TEST_F(VfcFixture, CommandsDeclinedUntilControlGranted) {
  TakeOffViaPlanner(15.0);
  vfc_->HandleClientFrame(CommandFrame(MavCmd::kNavLand));
  auto ack = LatestClientMessage<CommandAck>();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->result, static_cast<uint8_t>(MavResult::kDenied));
  EXPECT_EQ(vfc_->commands_declined(), 1u);
  EXPECT_EQ(drone_.controller().mode(), CopterMode::kGuided);  // Unchanged.
}

TEST_F(VfcFixture, ActiveVfcForwardsWhitelistedCommands) {
  TakeOffViaPlanner(15.0);
  vfc_->GrantControl();
  GeoPoint target = FromNed(kHome, NedPoint{30, 10, -15});
  vfc_->HandleClientFrame(GotoFrame(target));
  EXPECT_EQ(vfc_->commands_forwarded(), 1u);
  EXPECT_TRUE(drone_.RunUntil([&] { return drone_.DistanceTo(target) < 3.0; },
                              Seconds(120)));
}

TEST_F(VfcFixture, ActiveVfcStillFiltersByWhitelist) {
  TakeOffViaPlanner(15.0);
  vfc_->GrantControl();
  // RC override is not in the standard template.
  vfc_->HandleClientFrame(PackMessage(MavMessage{RcChannelsOverride{}}));
  EXPECT_EQ(vfc_->commands_forwarded(), 0u);
  EXPECT_EQ(vfc_->commands_declined(), 1u);
  // Arming never passes.
  vfc_->HandleClientFrame(CommandFrame(MavCmd::kComponentArmDisarm, 0));
  EXPECT_EQ(vfc_->commands_forwarded(), 0u);
}

TEST_F(VfcFixture, VdcControlQueryHasFinalSay) {
  TakeOffViaPlanner(15.0);
  bool allowed = false;
  vfc_->SetControlQuery([&] { return allowed; });
  vfc_->GrantControl();
  vfc_->HandleClientFrame(GotoFrame(kWaypointA));
  EXPECT_EQ(vfc_->commands_forwarded(), 0u);  // VDC said no.
  allowed = true;
  vfc_->HandleClientFrame(GotoFrame(kWaypointA));
  EXPECT_EQ(vfc_->commands_forwarded(), 1u);
}

TEST_F(VfcFixture, ApproachTriggersVirtualTakeoff) {
  TakeOffViaPlanner(15.0);
  // The drone is already within the approach threshold of kWaypointA (home
  // == waypoint A's ground position), so telemetry drives the animation.
  clock_.RunFor(Seconds(4));
  EXPECT_EQ(vfc_->state(), VfcState::kTakingOffToMeet);
  auto view = LatestClientMessage<GlobalPositionInt>();
  ASSERT_TRUE(view.has_value());
  EXPECT_GT(view->relative_alt, 0);  // Climbing virtually.
  EXPECT_LE(view->relative_alt, 16000);
}

TEST_F(VfcFixture, RevokeControlLandsTheVirtualView) {
  TakeOffViaPlanner(15.0);
  vfc_->GrantControl();
  clock_.RunFor(Seconds(2));
  vfc_->RevokeControl();
  EXPECT_EQ(vfc_->state(), VfcState::kLanding);
  // The view descends to the ground over time.
  clock_.RunFor(Seconds(10));
  auto view = LatestClientMessage<GlobalPositionInt>();
  ASSERT_TRUE(view.has_value());
  EXPECT_LT(view->relative_alt, 15000);
  vfc_->HandleClientFrame(CommandFrame(MavCmd::kNavLand));
  EXPECT_EQ(drone_.controller().mode(), CopterMode::kGuided);  // Declined.
}

TEST_F(VfcFixture, ContinuousPositionTenantSeesRealPosition) {
  VirtualFlightController* continuous = proxy_.CreateVfc(
      /*tenant_id=*/2,
      CommandWhitelist::FromTemplate(WhitelistTemplate::kGuidedOnly),
      /*continuous_position=*/true);
  std::vector<GlobalPositionInt> rx;
  continuous->SetClientSink([&](const MavlinkFrame& f) {
    auto m = UnpackMessage(f);
    if (m.ok() && std::holds_alternative<GlobalPositionInt>(*m)) {
      rx.push_back(std::get<GlobalPositionInt>(*m));
    }
  });
  continuous->SetAssignedWaypoint(FromNed(kHome, NedPoint{500, 500, -15}));
  TakeOffViaPlanner(15.0);
  clock_.RunFor(Seconds(2));
  ASSERT_FALSE(rx.empty());
  // Far from its waypoint, yet it sees the *real* position (altitude ~15 m).
  EXPECT_NEAR(rx.back().relative_alt / 1000.0, 15.0, 2.0);
  // But commands are still declined before its waypoint.
  continuous->HandleClientFrame(GotoFrame(kWaypointA));
  EXPECT_EQ(continuous->commands_forwarded(), 0u);
}

TEST_F(VfcFixture, FenceRecoverySuspendsAndRestoresCommands) {
  TakeOffViaPlanner(15.0);
  vfc_->GrantControl();
  // Wire fence callbacks the way the drone integration does.
  drone_.controller().SetFenceCallbacks(
      [&] { proxy_.OnFenceBreach(1); }, [&] { proxy_.OnFenceRecovered(1); });
  GeofenceConfig fence;
  fence.enabled = true;
  fence.center = drone_.physics().truth().position;
  fence.radius_m = 40;
  drone_.controller().SetGeofence(fence);

  // Tenant pushes the drone out of the fence.
  GeoPoint outside = FromNed(fence.center, NedPoint{300, 0, 0});
  vfc_->HandleClientFrame(GotoFrame(outside));
  ASSERT_TRUE(drone_.RunUntil(
      [&] { return !vfc_->commands_enabled(); }, Seconds(120)));
  // While recovering, commands are declined.
  uint64_t declined_before = vfc_->commands_declined();
  vfc_->HandleClientFrame(GotoFrame(outside));
  EXPECT_EQ(vfc_->commands_declined(), declined_before + 1);
  // Control returns after recovery.
  ASSERT_TRUE(drone_.RunUntil([&] { return vfc_->commands_enabled(); },
                              Seconds(120)));
  EXPECT_EQ(drone_.controller().mode(), CopterMode::kLoiter);
}

TEST_F(VfcFixture, InactiveTenantSeesNoForeignTelemetry) {
  TakeOffViaPlanner(15.0);
  // Tenant 1 is idle; another tenant (the planner here) flies around. The
  // idle tenant must not receive attitude/statustext of the shared drone.
  client_rx_.clear();
  clock_.RunFor(Seconds(5));
  for (const MavMessage& m : client_rx_) {
    EXPECT_FALSE(std::holds_alternative<Attitude>(m));
    EXPECT_FALSE(std::holds_alternative<StatusText>(m));
    EXPECT_FALSE(std::holds_alternative<SysStatus>(m));
  }
}

TEST_F(VfcFixture, ProxyFanOutReachesPlannerAndVfcs) {
  uint64_t planner_rx = 0;
  proxy_.SetPlannerSink([&](const MavlinkFrame&) { ++planner_rx; });
  clock_.RunFor(Seconds(3));
  EXPECT_GT(planner_rx, 0u);
  EXPECT_GT(proxy_.master_frames(), 0u);
  EXPECT_FALSE(client_rx_.empty());
}

// ------------------------------------------- Telemetry batching (§10).

class BatchFixture : public ::testing::Test {
 protected:
  BatchFixture() : proxy_(&clock_) {
    proxy_.SetPlannerWireSink([this](const std::vector<uint8_t>& bytes) {
      ++datagrams_;
      bytes_ += bytes.size();
      parser_.Feed(bytes);
      for (const MavlinkFrame& f : parser_.TakeFrames()) {
        (void)f;
        ++parsed_frames_;
      }
    });
  }

  MavlinkFrame TelemetryFrame() {
    Heartbeat hb;
    MavlinkFrame f = PackMessage(MavMessage{hb});
    f.seq = seq_++;
    return f;
  }

  SimClock clock_;
  MavProxy proxy_;
  MavlinkParser parser_;
  uint8_t seq_ = 0;
  uint64_t datagrams_ = 0;
  uint64_t bytes_ = 0;
  uint64_t parsed_frames_ = 0;
};

TEST_F(BatchFixture, UnbatchedWireEmitsOneDatagramPerFrame) {
  for (int i = 0; i < 5; ++i) {
    proxy_.HandleMasterFrame(TelemetryFrame());
  }
  EXPECT_EQ(datagrams_, 5u);
  EXPECT_EQ(parsed_frames_, 5u);
  EXPECT_EQ(proxy_.wire_frames(), 5u);
  EXPECT_EQ(proxy_.wire_flushes(), 5u);
}

TEST_F(BatchFixture, BatchingCoalescesFramesUntilWatermark) {
  std::vector<uint8_t> one;
  EncodeFrameInto(TelemetryFrame(), &one);
  TelemetryBatchConfig config;
  config.flush_bytes = 3 * one.size();  // Watermark reached on frame 3.
  config.flush_after = Seconds(10);     // Deadline never fires here.
  proxy_.EnableTelemetryBatching(config);

  proxy_.HandleMasterFrame(TelemetryFrame());
  proxy_.HandleMasterFrame(TelemetryFrame());
  EXPECT_EQ(datagrams_, 0u);  // Below watermark: nothing on the wire yet.
  proxy_.HandleMasterFrame(TelemetryFrame());
  EXPECT_EQ(datagrams_, 1u);  // One datagram carries all three frames…
  EXPECT_EQ(parsed_frames_, 3u);  // …and self-framing parses each of them.
  EXPECT_EQ(bytes_, 3 * one.size());
  EXPECT_EQ(proxy_.wire_frames(), 3u);
  EXPECT_EQ(proxy_.wire_flushes(), 1u);
}

TEST_F(BatchFixture, BatchFlushesOnDeadline) {
  TelemetryBatchConfig config;
  config.flush_bytes = 1 << 20;  // Watermark unreachable.
  config.flush_after = Millis(25);
  proxy_.EnableTelemetryBatching(config);

  proxy_.HandleMasterFrame(TelemetryFrame());
  proxy_.HandleMasterFrame(TelemetryFrame());
  EXPECT_EQ(datagrams_, 0u);
  clock_.RunFor(Millis(25));  // Deadline measured from the first frame.
  EXPECT_EQ(datagrams_, 1u);
  EXPECT_EQ(parsed_frames_, 2u);

  // The deadline re-arms per batch, not per frame.
  proxy_.HandleMasterFrame(TelemetryFrame());
  clock_.RunFor(Millis(25));
  EXPECT_EQ(datagrams_, 2u);
  EXPECT_EQ(parsed_frames_, 3u);
}

TEST_F(BatchFixture, ExplicitFlushDrainsAndCancelsDeadline) {
  TelemetryBatchConfig config;
  config.flush_bytes = 1 << 20;
  config.flush_after = Millis(25);
  proxy_.EnableTelemetryBatching(config);

  proxy_.HandleMasterFrame(TelemetryFrame());
  proxy_.FlushTelemetryBatch();
  EXPECT_EQ(datagrams_, 1u);
  // The cancelled deadline must not fire a second, empty flush.
  clock_.RunFor(Millis(100));
  EXPECT_EQ(datagrams_, 1u);
  EXPECT_EQ(proxy_.wire_flushes(), 1u);

  // Flushing an empty batch is a no-op, not an empty datagram.
  proxy_.FlushTelemetryBatch();
  EXPECT_EQ(datagrams_, 1u);
}

}  // namespace
}  // namespace androne
