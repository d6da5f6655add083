#include "src/util/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace androne {

Status FaultSchedule::ValidateWindow(const FaultWindowSpec& window,
                                     int max_kind, int max_scope) {
  if (window.kind < 0 || window.kind > max_kind) {
    return InvalidArgumentError("fault window: unknown kind " +
                                std::to_string(window.kind));
  }
  if (window.scope != kFaultScopeAll &&
      (window.scope < 0 || window.scope > max_scope)) {
    return InvalidArgumentError("fault window: scope " +
                                std::to_string(window.scope) +
                                " out of range [0, " +
                                std::to_string(max_scope) + "]");
  }
  if (window.start < 0) {
    return InvalidArgumentError("fault window: negative start time");
  }
  if (window.end < window.start) {
    return InvalidArgumentError(
        "fault window: negative duration (end before start)");
  }
  if (window.d0 < 0) {
    return InvalidArgumentError("fault window: negative extra duration");
  }
  if (!std::isfinite(window.p0) || !std::isfinite(window.p1)) {
    return InvalidArgumentError("fault window: non-finite parameter");
  }
  return OkStatus();
}

Status FaultSchedule::Validate(int max_kind, int max_scope) const {
  for (size_t i = 0; i < windows_.size(); ++i) {
    Status status = ValidateWindow(windows_[i], max_kind, max_scope);
    if (!status.ok()) {
      return Status(status.code(),
                    "window " + std::to_string(i) + ": " + status.message());
    }
  }
  return OkStatus();
}

bool FaultSchedule::AnyActive(SimTime t, int kind, int scope) const {
  return FirstActive(t, kind, scope) != nullptr;
}

const FaultWindowSpec* FaultSchedule::FirstActive(SimTime t, int kind,
                                                  int scope) const {
  for (const FaultWindowSpec& w : windows_) {
    if (w.kind == kind && WindowCovers(w, t, scope)) {
      return &w;
    }
  }
  return nullptr;
}

SimTime FaultSchedule::last_end() const {
  SimTime end = 0;
  for (const FaultWindowSpec& w : windows_) {
    end = std::max(end, w.end);
  }
  return end;
}

}  // namespace androne
