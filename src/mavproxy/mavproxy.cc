#include "src/mavproxy/mavproxy.h"

#include "src/obs/trace.h"
#include "src/snapshot/archive.h"

namespace androne {

MavProxy::~MavProxy() {
  if (batch_deadline_armed_) {
    clock_->Cancel(batch_deadline_);
    batch_deadline_armed_ = false;
  }
}

void MavProxy::HandleMasterFrame(const MavlinkFrame& frame) {
  ++master_frames_;
  if (to_planner_) {
    to_planner_(frame);
  }
  if (to_planner_wire_) {
    ++wire_frames_;
    const bool tracing = trace_ != nullptr && trace_->enabled(kTraceMavlink);
    if (batching_enabled_) {
      const bool was_empty = batch_scratch_.empty();
      EncodeFrameInto(frame, &batch_scratch_);
      if (tracing) {
        trace_->Instant(kTraceMavlink, encode_name_, -1,
                        static_cast<int64_t>(batch_scratch_.size()));
      }
      if (batch_scratch_.size() >= batch_config_.flush_bytes) {
        FlushTelemetryBatch();
      } else if (was_empty) {
        ArmBatchDeadline(clock_->now() + batch_config_.flush_after);
      }
    } else {
      planner_wire_scratch_.clear();
      EncodeFrameInto(frame, &planner_wire_scratch_);
      ++wire_flushes_;
      if (tracing) {
        trace_->Instant(kTraceMavlink, encode_name_, -1,
                        static_cast<int64_t>(planner_wire_scratch_.size()));
        trace_->Instant(kTraceMavlink, flush_name_, -1,
                        static_cast<int64_t>(planner_wire_scratch_.size()));
      }
      to_planner_wire_(planner_wire_scratch_);
    }
  }
  for (const auto& vfc : vfcs_) {
    vfc->HandleMasterFrame(frame);
  }
}

void MavProxy::EnableTelemetryBatching(const TelemetryBatchConfig& config) {
  batching_enabled_ = true;
  batch_config_ = config;
  // Watermark overshoot is bounded by one encoded frame (MAVLink v1 caps at
  // 6-byte header + 255 payload + 2 CRC).
  batch_scratch_.reserve(config.flush_bytes + 263);
}

void MavProxy::ArmBatchDeadline(SimTime when) {
  batch_deadline_ = clock_->ScheduleAt(when, [this] {
    batch_deadline_armed_ = false;
    FlushTelemetryBatch();
  });
  batch_deadline_armed_ = true;
}

void MavProxy::FlushTelemetryBatch() {
  if (batch_deadline_armed_) {
    clock_->Cancel(batch_deadline_);
    batch_deadline_armed_ = false;
  }
  if (batch_scratch_.empty()) {
    return;
  }
  ++wire_flushes_;
  if (trace_ != nullptr && trace_->enabled(kTraceMavlink)) {
    trace_->Instant(kTraceMavlink, flush_name_, -1,
                    static_cast<int64_t>(batch_scratch_.size()));
  }
  if (to_planner_wire_) {
    to_planner_wire_(batch_scratch_);
  }
  batch_scratch_.clear();
}

void MavProxy::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    encode_name_ = trace_->InternName("mav.encode");
    flush_name_ = trace_->InternName("mav.flush");
  }
}

void MavProxy::HandlePlannerFrame(const MavlinkFrame& frame) {
  // The planner/service-provider connection is unrestricted.
  SendToMaster(frame);
}

void MavProxy::SendToMaster(const MavlinkFrame& frame) {
  if (to_master_) {
    to_master_(frame);
  }
}

VirtualFlightController* MavProxy::CreateVfc(int tenant_id,
                                             CommandWhitelist whitelist,
                                             bool continuous_position) {
  auto vfc = std::make_unique<VirtualFlightController>(
      clock_, tenant_id, std::move(whitelist), continuous_position);
  vfc->SetMasterSink([this](const MavlinkFrame& frame) {
    SendToMaster(frame);
  });
  VirtualFlightController* raw = vfc.get();
  vfcs_.push_back(std::move(vfc));
  return raw;
}

VirtualFlightController* MavProxy::FindVfc(int tenant_id) {
  for (const auto& vfc : vfcs_) {
    if (vfc->tenant_id() == tenant_id) {
      return vfc.get();
    }
  }
  return nullptr;
}

void MavProxy::OnFenceBreach(int tenant_id) {
  VirtualFlightController* vfc = FindVfc(tenant_id);
  if (vfc != nullptr) {
    vfc->SuspendForFenceRecovery();
  }
}

void MavProxy::OnFenceRecovered(int tenant_id) {
  VirtualFlightController* vfc = FindVfc(tenant_id);
  if (vfc != nullptr) {
    vfc->ResumeAfterFenceRecovery();
  }
}

void MavProxy::OnSafetyOverride() {
  for (const auto& vfc : vfcs_) {
    vfc->SuspendForSafetyOverride();
  }
}

void MavProxy::OnSafetyRelease() {
  for (const auto& vfc : vfcs_) {
    vfc->ResumeAfterSafetyOverride();
  }
}

template <class Ar>
Status MavProxy::Visit(Ar& ar) {
  ar.Section("PRXY");
  ar.U64(master_frames_);
  ar.U64(wire_frames_);
  ar.U64(wire_flushes_);
  ar.Bytes(batch_scratch_);
  // The batch deadline is armed exactly while its event is pending.
  ar.Timer("mav.batch", batch_deadline_,
           [this](SimTime when) { ArmBatchDeadline(when); });
  ar.Bool(batch_deadline_armed_);
  ar.Match(vfcs_.size(), "mavproxy VFC roster size");
  for (const auto& vfc : vfcs_) {
    RETURN_IF_ERROR(vfc->Visit(ar));
  }
  return ar.status();
}

template Status MavProxy::Visit(SaveArchive&);
template Status MavProxy::Visit(LoadArchive&);

}  // namespace androne
