#include "src/hw/camera.h"

namespace androne {

Camera::Camera(SimClock* clock, const DroneGroundTruth* truth, int width,
               int height)
    : HardwareDevice(kCameraDeviceName), clock_(clock), truth_(truth),
      width_(width), height_(height) {}

StatusOr<CameraFrame> Camera::Capture(ContainerId caller) {
  RETURN_IF_ERROR(CheckOpenBy(caller));
  CameraFrame frame;
  frame.sequence = next_sequence_++;
  frame.width = width_;
  frame.height = height_;
  frame.timestamp = clock_->now();
  frame.camera_position = truth_->position;
  // Deterministic content fingerprint derived from pose + time (FNV-1a mix).
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(frame.sequence);
  mix(static_cast<uint64_t>(frame.timestamp));
  // Pose components go through int64_t: west/south/below-base values are
  // negative, and a negative double -> uint64_t conversion is undefined.
  auto fixed = [](double v) {
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  };
  mix(fixed(truth_->position.latitude_deg * 1e7));
  mix(fixed(truth_->position.longitude_deg * 1e7));
  mix(fixed(truth_->position.altitude_m * 100));
  frame.content_hash = h;
  return frame;
}

}  // namespace androne
