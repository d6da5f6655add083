// Fault sweep: reliable COMMAND_LONG delivery over the paper's LTE link as
// network conditions degrade. Sweeps (a) random burst-loss probability and
// (b) outage duty cycle, and reports delivery rate, retransmissions per
// delivered command, and time-to-ack — the robustness envelope of the
// reliable sender's retry and give-up constants.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/mavlink/reliable.h"
#include "src/net/channel.h"
#include "src/net/fault_injector.h"
#include "src/util/histogram.h"
#include "src/util/json.h"

namespace androne {
namespace {

constexpr int kCommandsPerPoint = 400;
constexpr uint64_t kSeed = 2026;

struct SweepResult {
  int delivered = 0;
  int gave_up = 0;
  uint64_t retransmissions = 0;
  Histogram ack_ms{10, 6};
};

// Runs |kCommandsPerPoint| reliable commands through an echo peer over a
// duplex LTE channel decorated with |plan|, one command at a time.
SweepResult RunPoint(const FaultPlan& plan) {
  SimClock clock;
  CellularLteModel lte;
  FaultyLinkModel forward(&lte, &plan, &clock, LinkDirection::kForward);
  FaultyLinkModel reverse(&lte, &plan, &clock, LinkDirection::kReverse);
  DuplexChannel channel(&clock, &forward, &reverse, kSeed);

  ReliableCommandSender sender(&clock, kSeed + 1);
  CommandDeduper deduper(&clock, /*window=*/Seconds(5));
  MavlinkParser up_parser;
  MavlinkParser down_parser;

  // Wire sink: the sender encodes (first sends and retransmissions) into one
  // reused scratch buffer; the channel copies it into shared ownership.
  sender.SetWireSink([&](const std::vector<uint8_t>& bytes) {
    channel.a_to_b.Send(bytes);
  });
  // Echo peer: ack every fresh command, re-ack suppressed duplicates.
  std::vector<uint8_t> ack_scratch;
  channel.a_to_b.SetReceiver([&](const std::vector<uint8_t>& datagram) {
    up_parser.Feed(datagram);
    for (const MavlinkFrame& frame : up_parser.TakeFrames()) {
      CommandDeduper::Verdict verdict = deduper.Filter(frame);
      CommandAck ack;
      if (verdict.duplicate) {
        if (!verdict.cached_ack.has_value()) {
          continue;
        }
        ack = *verdict.cached_ack;
      } else {
        auto message = UnpackMessage(frame);
        if (!message.ok()) {
          continue;
        }
        ack.command = std::get<CommandLong>(*message).command;
        ack.result = 0;
        deduper.RecordAck(ack);
      }
      ack_scratch.clear();
      EncodeFrameInto(PackMessage(MavMessage{ack}), &ack_scratch);
      channel.b_to_a.Send(ack_scratch);
    }
  });
  channel.b_to_a.SetReceiver([&](const std::vector<uint8_t>& datagram) {
    down_parser.Feed(datagram);
    for (const MavlinkFrame& frame : down_parser.TakeFrames()) {
      sender.HandleFrame(frame);
    }
  });

  SweepResult result;
  bool resolved = false;
  bool ok = false;
  sender.SetCompletionCallback([&](const CommandLong&, bool delivered) {
    resolved = true;
    ok = delivered;
  });

  for (int i = 0; i < kCommandsPerPoint; ++i) {
    CommandLong cmd;
    cmd.command = 16;  // Any command id; one in flight at a time.
    cmd.param1 = static_cast<float>(i);
    resolved = false;
    SimTime sent_at = clock.now();
    sender.SendCommand(cmd);
    while (!resolved) {
      clock.RunUntil(clock.now() + Millis(50));
    }
    if (ok) {
      ++result.delivered;
      result.ack_ms.Record(ToMillis(clock.now() - sent_at));
    } else {
      ++result.gave_up;
    }
    // Pace commands apart so the sweep covers many fault-window phases.
    clock.RunUntil(clock.now() + Millis(250));
  }
  result.retransmissions = sender.retransmissions();
  return result;
}

// Rows accumulated for the optional --json output.
JsonArray g_rows;

void PrintRow(const char* sweep, const char* label, double x,
              const SweepResult& r) {
  std::printf("  %-22s %6.1f%% delivered   %5.2f retx/cmd   "
              "ack p50 %4lld ms  max %4lld ms   gave up %d\n",
              label, 100.0 * r.delivered / kCommandsPerPoint,
              static_cast<double>(r.retransmissions) / kCommandsPerPoint,
              static_cast<long long>(r.ack_ms.Percentile(0.5)),
              static_cast<long long>(r.ack_ms.max()), r.gave_up);
  JsonObject row;
  row["sweep"] = sweep;
  row["x"] = x;
  row["delivered_fraction"] =
      static_cast<double>(r.delivered) / kCommandsPerPoint;
  row["retx_per_cmd"] =
      static_cast<double>(r.retransmissions) / kCommandsPerPoint;
  row["ack_p50_ms"] = static_cast<double>(r.ack_ms.Percentile(0.5));
  row["ack_max_ms"] = static_cast<double>(r.ack_ms.max());
  row["gave_up"] = static_cast<double>(r.gave_up);
  g_rows.emplace_back(std::move(row));
}

void SweepBurstLoss() {
  std::printf("\nburst loss (both directions, continuous):\n");
  const double rates[] = {0.0, 0.05, 0.15, 0.30, 0.50, 0.70};
  for (double rate : rates) {
    FaultPlan plan;
    if (rate > 0) {
      plan.AddBurstLoss(0, Seconds(100000), rate);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "loss=%.0f%%", rate * 100);
    PrintRow("burst_loss", label, rate, RunPoint(plan));
  }
}

void SweepOutageDutyCycle() {
  std::printf("\nperiodic outages (10 s period, both directions):\n");
  const double duty[] = {0.1, 0.3, 0.5, 0.7};
  for (double d : duty) {
    FaultPlan plan;
    for (int p = 0; p < 40; ++p) {
      plan.AddOutage(Seconds(10 * p), SecondsF(10 * d));
    }
    char label[32];
    std::snprintf(label, sizeof(label), "outage duty=%.0f%%", d * 100);
    PrintRow("outage_duty", label, d, RunPoint(plan));
  }
}

void Run(const char* json_path) {
  BenchHeader("Fault sweep",
              "reliable command delivery over degrading LTE links");
  BenchNote("ReliableCommandSender constants (mavlink/reliable.cc): "
            "kAckTimeout 400 ms, kMaxAttempts 10, kRetryBackoff "
            "exponential to 5 s with 25% jitter");
  SweepBurstLoss();
  SweepOutageDutyCycle();
  std::printf("\n");
  if (json_path != nullptr) {
    JsonObject doc;
    doc["bench"] = "fault_sweep";
    doc["commands_per_point"] = static_cast<double>(kCommandsPerPoint);
    doc["rows"] = JsonValue(g_rows);
    WriteJsonDoc(json_path, doc);
  }
}

}  // namespace
}  // namespace androne

int main(int argc, char** argv) {
  androne::Run(androne::JsonPathArg(argc, argv));
  return 0;
}
