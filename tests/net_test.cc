#include <gtest/gtest.h>

#include "src/net/channel.h"
#include "src/net/link_model.h"

namespace androne {
namespace {

TEST(LinkModelTest, LteLatencyDistributionMatchesSec65) {
  CellularLteModel lte;
  Rng rng(2026);
  Histogram ms_hist(10, 6);
  uint64_t lost = 0;
  const int n = 150000;  // The paper's ~150k command experiment scale.
  for (int i = 0; i < n; ++i) {
    if (lte.SampleLoss(rng)) {
      ++lost;
      continue;
    }
    ms_hist.Record(ToMillis(lte.SampleLatency(rng)));
  }
  EXPECT_NEAR(ms_hist.mean(), 70.0, 3.0);       // Paper: avg 70 ms.
  EXPECT_LE(ms_hist.max(), 360);                 // Paper: max 356 ms.
  EXPECT_GT(ms_hist.max(), 150);                 // Tail spikes exist.
  EXPECT_NEAR(ms_hist.stddev(), 7.2, 3.5);       // Paper: stddev 7.2 ms.
  EXPECT_GE(lost, 1u);                           // Paper: 6 packets lost.
  EXPECT_LE(lost, 20u);
}

TEST(LinkModelTest, RfLatencyInHobbyRange) {
  RfRemoteModel rf;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t ms = ToMillis(rf.SampleLatency(rng));
    EXPECT_GE(ms, 8);
    EXPECT_LE(ms, 85);
  }
}

TEST(LinkModelTest, WiredIsFastAndLossless) {
  WiredModel wired;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(ToMillis(wired.SampleLatency(rng)), 3);
    EXPECT_FALSE(wired.SampleLoss(rng));
  }
}

TEST(ChannelTest, DeliversAfterLatency) {
  SimClock clock;
  WiredModel wired;
  NetworkChannel ch(&clock, &wired, 1);
  std::vector<uint8_t> received;
  ch.SetReceiver([&](const std::vector<uint8_t>& d) { received = d; });
  ch.Send({1, 2, 3});
  EXPECT_TRUE(received.empty());  // Not yet delivered.
  clock.RunAll();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_GT(clock.now(), 0);
}

TEST(ChannelTest, CountsLosses) {
  // A lossy link: use LTE with many sends and verify sent = delivered+lost.
  SimClock clock;
  CellularLteModel lte;
  NetworkChannel ch(&clock, &lte, 3);
  int received = 0;
  ch.SetReceiver([&](const std::vector<uint8_t>&) { ++received; });
  for (int i = 0; i < 50000; ++i) {
    ch.Send({0});
  }
  clock.RunAll();
  EXPECT_EQ(ch.sent(), 50000u);
  EXPECT_EQ(ch.delivered() + ch.lost(), ch.sent());
  EXPECT_EQ(static_cast<uint64_t>(received), ch.delivered());
}

TEST(ChannelTest, LatencyHistogramPopulated) {
  SimClock clock;
  CellularLteModel lte;
  NetworkChannel ch(&clock, &lte, 5);
  ch.SetReceiver([](const std::vector<uint8_t>&) {});
  for (int i = 0; i < 1000; ++i) {
    ch.Send({9});
  }
  clock.RunAll();
  EXPECT_NEAR(ch.latency_us().mean(), 70000, 5000);
}

TEST(ChannelTest, NoReceiverCountsAsDropNotDelivery) {
  SimClock clock;
  WiredModel wired;
  NetworkChannel ch(&clock, &wired, 1);
  ch.Send({1, 2, 3});  // No receiver attached at delivery time.
  clock.RunAll();
  EXPECT_EQ(ch.sent(), 1u);
  EXPECT_EQ(ch.delivered(), 0u);
  EXPECT_EQ(ch.dropped_no_receiver(), 1u);
  EXPECT_EQ(ch.latency_us().total_count(), 0u);
  // Attaching a receiver afterwards resumes normal delivery.
  int received = 0;
  ch.SetReceiver([&](const std::vector<uint8_t>&) { ++received; });
  ch.Send({4});
  clock.RunAll();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_EQ(ch.dropped_no_receiver(), 1u);
}

TEST(ChannelTest, DuplexDirectionsUseIndependentStreams) {
  // The reverse direction's RNG is derived with a SplitMix64 mix; the two
  // directions must not replay the same latency sequence even though they
  // share one seed and one link model.
  SimClock clock;
  CellularLteModel lte;
  DuplexChannel duplex(&clock, &lte, 77);
  duplex.a_to_b.SetReceiver([](const std::vector<uint8_t>&) {});
  duplex.b_to_a.SetReceiver([](const std::vector<uint8_t>&) {});
  for (int i = 0; i < 500; ++i) {
    duplex.a_to_b.Send({1});
    duplex.b_to_a.Send({2});
  }
  clock.RunAll();
  EXPECT_EQ(duplex.a_to_b.delivered() + duplex.a_to_b.lost(), 500u);
  EXPECT_EQ(duplex.b_to_a.delivered() + duplex.b_to_a.lost(), 500u);
  EXPECT_NE(duplex.a_to_b.latency_us().mean(),
            duplex.b_to_a.latency_us().mean());
}

TEST(VpnTest, RoundTripThroughTunnel) {
  SimClock clock;
  WiredModel wired;
  NetworkChannel ch(&clock, &wired, 1);
  VpnTunnel tx(&ch, 42);
  VpnTunnel rx(&ch, 42);  // Same tunnel id on the receive side.
  std::vector<uint8_t> got;
  rx.SetReceiver([&](const std::vector<uint8_t>& d) { got = d; });
  tx.Send({7, 8, 9});
  clock.RunAll();
  EXPECT_EQ(got, (std::vector<uint8_t>{7, 8, 9}));
  EXPECT_EQ(rx.rejected_datagrams(), 0u);
}

TEST(VpnTest, CrossTenantTrafficRejected) {
  SimClock clock;
  WiredModel wired;
  NetworkChannel ch(&clock, &wired, 1);
  VpnTunnel attacker(&ch, 666);
  VpnTunnel victim(&ch, 42);
  bool received = false;
  victim.SetReceiver([&](const std::vector<uint8_t>&) { received = true; });
  attacker.Send({0xde, 0xad});
  clock.RunAll();
  EXPECT_FALSE(received);
  EXPECT_EQ(victim.rejected_datagrams(), 1u);
}

TEST(VpnTest, CrossTenantInjectionUnderLossRejectsEveryDeliveredDatagram) {
  // Cross-tenant injection over a heavily lossy link: the datagrams the
  // link drops never reach the victim, and every one that survives is
  // rejected by the tunnel-id check — none are delivered to the receiver.
  class VeryLossyLte : public CellularLteModel {
   public:
    bool SampleLoss(Rng& rng) const override { return rng.Bernoulli(0.3); }
  };
  SimClock clock;
  VeryLossyLte lossy;
  NetworkChannel ch(&clock, &lossy, 17);
  VpnTunnel attacker(&ch, 666);
  VpnTunnel victim(&ch, 42);
  int received = 0;
  victim.SetReceiver([&](const std::vector<uint8_t>&) { ++received; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    attacker.Send({0xde, 0xad});
  }
  clock.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_GT(ch.lost(), 0u);
  EXPECT_LT(ch.delivered(), static_cast<uint64_t>(n));
  EXPECT_EQ(victim.rejected_datagrams(), ch.delivered());
}

TEST(ChannelTest, DeliveryIsZeroCopy) {
  SimClock clock;
  WiredModel wired;
  NetworkChannel ch(&clock, &wired, 1);
  // The receiver must observe the very buffer the sender handed to Send():
  // the payload moves into the in-flight registry and is never copied on
  // the way to the receiver.
  std::vector<uint8_t> payload(1024, 0xAB);
  const uint8_t* sent_data = payload.data();
  const uint8_t* seen_data = nullptr;
  ch.SetReceiver(
      [&](const std::vector<uint8_t>& d) { seen_data = d.data(); });
  ch.Send(std::move(payload));
  clock.RunAll();
  ASSERT_NE(seen_data, nullptr);
  EXPECT_EQ(seen_data, sent_data);
}

TEST(VpnTest, ShortDatagramRejected) {
  SimClock clock;
  WiredModel wired;
  NetworkChannel ch(&clock, &wired, 1);
  VpnTunnel rx(&ch, 42);
  bool received = false;
  rx.SetReceiver([&](const std::vector<uint8_t>&) { received = true; });
  ch.Send({1, 2});  // Too short for a tunnel header.
  clock.RunAll();
  EXPECT_FALSE(received);
  EXPECT_EQ(rx.rejected_datagrams(), 1u);
}

TEST(ChannelTest, TeardownWithDatagramInFlightFreesThePayload) {
  // A channel destroyed with an undelivered datagram while its clock lives
  // on: the registry owns the payload and dies with the channel, and the
  // still-queued delivery event captures only an id, so the clock's later
  // teardown frees nothing twice and nothing leaks.
  SimClock clock;
  WiredModel wired;
  {
    NetworkChannel ch(&clock, &wired, 1);
    ch.Send({5, 6});
    EXPECT_EQ(ch.inflight(), 1u);
    // Never run the clock: the datagram stays queued past the channel.
  }
  EXPECT_EQ(clock.pending_events(), 1u);
}

}  // namespace
}  // namespace androne
