#include "src/services/device_services.h"

#include "src/services/permissions.h"

namespace androne {

std::vector<ContainerId> DeviceService::ActiveContainers() const {
  std::vector<ContainerId> out;
  for (const auto& [container, pids] : clients_) {
    if (!pids.empty()) {
      out.push_back(container);
    }
  }
  return out;
}

std::vector<Pid> DeviceService::ActivePids(ContainerId container) const {
  auto it = clients_.find(container);
  if (it == clients_.end()) {
    return {};
  }
  return std::vector<Pid>(it->second.begin(), it->second.end());
}

void DeviceService::DropClients(ContainerId container) {
  clients_.erase(container);
}

void DeviceService::TrackClient(const BinderCallContext& ctx) {
  clients_[ctx.calling_container].insert(ctx.calling_pid);
}

void DeviceService::UntrackClient(const BinderCallContext& ctx) {
  auto it = clients_.find(ctx.calling_container);
  if (it != clients_.end()) {
    it->second.erase(ctx.calling_pid);
    if (it->second.empty()) {
      clients_.erase(it);
    }
  }
}

// ------------------------------------------------------------- Camera.

Status CameraService::OnTransact(uint32_t code, const Parcel& data,
                                 Parcel* reply,
                                 const BinderCallContext& ctx) {
  (void)data;
  switch (code) {
    case kCamConnect:
      if (!CheckPermission(kPermCamera, ctx)) {
        return PermissionDeniedError("camera access denied for container " +
                                     std::to_string(ctx.calling_container));
      }
      TrackClient(ctx);
      reply->WriteInt32(ctx.calling_pid);  // Client cookie.
      return OkStatus();
    case kCamCapture: {
      if (!CheckPermission(kPermCamera, ctx)) {
        return PermissionDeniedError("camera access denied for container " +
                                     std::to_string(ctx.calling_container));
      }
      TrackClient(ctx);
      ASSIGN_OR_RETURN(CameraFrame frame,
                       camera_->Capture(camera_->opener()));
      reply->WriteInt64(static_cast<int64_t>(frame.sequence));
      reply->WriteInt64(frame.timestamp);
      reply->WriteInt32(frame.width);
      reply->WriteInt32(frame.height);
      reply->WriteDouble(frame.camera_position.latitude_deg);
      reply->WriteDouble(frame.camera_position.longitude_deg);
      reply->WriteDouble(frame.camera_position.altitude_m);
      // The pixel buffer crosses as a shared-memory fd, like gralloc.
      reply->WriteFd(static_cast<FdToken>(frame.content_hash));
      return OkStatus();
    }
    case kCamDisconnect:
      UntrackClient(ctx);
      return OkStatus();
    default:
      return UnimplementedError("unknown CameraService code");
  }
}

// ------------------------------------------------------------ Location.

Status LocationManagerService::OnTransact(uint32_t code, const Parcel& data,
                                          Parcel* reply,
                                          const BinderCallContext& ctx) {
  (void)data;
  if (code != kLocGetLast) {
    return UnimplementedError("unknown LocationManagerService code");
  }
  if (!CheckPermission(kPermGps, ctx)) {
    return PermissionDeniedError("gps access denied for container " +
                                 std::to_string(ctx.calling_container));
  }
  TrackClient(ctx);
  const GpsFix& fix = hub_->Sample().gps;
  reply->WriteDouble(fix.position.latitude_deg);
  reply->WriteDouble(fix.position.longitude_deg);
  reply->WriteDouble(fix.position.altitude_m);
  reply->WriteDouble(fix.velocity_ms.north_m);
  reply->WriteDouble(fix.velocity_ms.east_m);
  reply->WriteDouble(fix.velocity_ms.down_m);
  reply->WriteBool(fix.has_fix);
  reply->WriteInt32(fix.satellites);
  reply->WriteInt64(fix.timestamp);
  return OkStatus();
}

// ------------------------------------------------------------- Sensors.

Status SensorService::OnTransact(uint32_t code, const Parcel& data,
                                 Parcel* reply,
                                 const BinderCallContext& ctx) {
  (void)data;
  if (!CheckPermission(kPermSensors, ctx)) {
    return PermissionDeniedError("sensor access denied for container " +
                                 std::to_string(ctx.calling_container));
  }
  TrackClient(ctx);
  switch (code) {
    case kSensorReadImu: {
      const ImuSample& s = hub_->Sample().imu;
      for (double g : s.gyro_rads) {
        reply->WriteDouble(g);
      }
      for (double a : s.accel_mss) {
        reply->WriteDouble(a);
      }
      reply->WriteInt64(s.timestamp);
      return OkStatus();
    }
    case kSensorReadBaro:
      reply->WriteDouble(hub_->Sample().baro_altitude_m);
      return OkStatus();
    case kSensorReadMag:
      reply->WriteDouble(hub_->Sample().mag_heading_rad);
      return OkStatus();
    default:
      return UnimplementedError("unknown SensorService code");
  }
}

// --------------------------------------------------------------- Audio.

Status AudioFlingerService::OnTransact(uint32_t code, const Parcel& data,
                                       Parcel* reply,
                                       const BinderCallContext& ctx) {
  switch (code) {
    case kAudioRecord: {
      if (!CheckPermission(kPermMicrophone, ctx)) {
        return PermissionDeniedError(
            "microphone access denied for container " +
            std::to_string(ctx.calling_container));
      }
      TrackClient(ctx);
      ASSIGN_OR_RETURN(int32_t samples, data.ReadInt32());
      if (samples < 0 || samples > 1'000'000) {
        return InvalidArgumentError("bad sample count");
      }
      ASSIGN_OR_RETURN(std::vector<int16_t> pcm,
                       microphone_->Record(microphone_->opener(),
                                           static_cast<size_t>(samples)));
      reply->WriteInt32(static_cast<int32_t>(pcm.size()));
      // PCM crosses as a shared-memory region.
      reply->WriteFd(next_fd_++);
      return OkStatus();
    }
    case kAudioPlay: {
      if (speaker_ == nullptr) {
        return UnimplementedError("no speaker on this airframe");
      }
      // Playback rides the microphone permission (one audio grant per
      // tenant, like Android's RECORD_AUDIO/MODIFY_AUDIO pairing here).
      if (!CheckPermission(kPermMicrophone, ctx)) {
        return PermissionDeniedError("audio access denied for container " +
                                     std::to_string(ctx.calling_container));
      }
      TrackClient(ctx);
      ASSIGN_OR_RETURN(int32_t samples, data.ReadInt32());
      if (samples < 0 || samples > 10'000'000) {
        return InvalidArgumentError("bad sample count");
      }
      RETURN_IF_ERROR(speaker_->Play(speaker_->opener(),
                                     static_cast<size_t>(samples)));
      reply->WriteInt32(samples);
      return OkStatus();
    }
    default:
      return UnimplementedError("unknown AudioFlinger code");
  }
}

}  // namespace androne
