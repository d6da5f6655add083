#include "src/core/definition.h"

#include <algorithm>

#include "src/services/permissions.h"

namespace androne {

namespace {

StatusOr<std::vector<std::string>> ReadStringArray(const JsonValue& root,
                                                   const std::string& key) {
  std::vector<std::string> out;
  const JsonValue* value = root.Find(key);
  if (value == nullptr) {
    return out;  // Absent is an empty list.
  }
  if (!value->is_array()) {
    return InvalidArgumentError("'" + key + "' must be an array");
  }
  for (const JsonValue& item : value->AsArray()) {
    if (!item.is_string()) {
      return InvalidArgumentError("'" + key + "' entries must be strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

}  // namespace

StatusOr<VirtualDroneDefinition> VirtualDroneDefinition::FromJson(
    const std::string& json) {
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return InvalidArgumentError("definition must be a JSON object");
  }
  VirtualDroneDefinition def;
  def.id = root.GetStringOr("id", "");
  def.owner = root.GetStringOr("owner", "");

  const JsonValue* waypoints = root.Find("waypoints");
  if (waypoints == nullptr || !waypoints->is_array()) {
    return InvalidArgumentError("definition needs a 'waypoints' array");
  }
  for (const JsonValue& wp : waypoints->AsArray()) {
    if (!wp.is_object()) {
      return InvalidArgumentError("waypoint entries must be objects");
    }
    WaypointSpec spec;
    spec.point.latitude_deg = wp.GetNumberOr("latitude", 360.0);
    spec.point.longitude_deg = wp.GetNumberOr("longitude", 360.0);
    spec.point.altitude_m = wp.GetNumberOr("altitude", 0.0);
    spec.max_radius_m = wp.GetNumberOr("max-radius", 30.0);
    if (spec.point.latitude_deg > 90 || spec.point.latitude_deg < -90 ||
        spec.point.longitude_deg > 180 || spec.point.longitude_deg < -180) {
      return InvalidArgumentError("waypoint has invalid coordinates");
    }
    def.waypoints.push_back(spec);
  }

  def.max_duration_s = root.GetNumberOr("max-duration", 600.0);
  def.energy_allotted_j = root.GetNumberOr("energy-allotted", 45000.0);
  ASSIGN_OR_RETURN(def.continuous_devices,
                   ReadStringArray(root, "continuous-devices"));
  ASSIGN_OR_RETURN(def.waypoint_devices,
                   ReadStringArray(root, "waypoint-devices"));
  ASSIGN_OR_RETURN(def.apps, ReadStringArray(root, "apps"));
  const JsonValue* args = root.Find("app-args");
  def.app_args = args != nullptr ? *args : JsonValue(JsonObject{});
  RETURN_IF_ERROR(def.Validate());
  return def;
}

std::string VirtualDroneDefinition::ToJson() const {
  JsonObject root;
  if (!id.empty()) {
    root["id"] = id;
  }
  if (!owner.empty()) {
    root["owner"] = owner;
  }
  JsonArray wps;
  for (const WaypointSpec& wp : waypoints) {
    JsonObject obj;
    obj["latitude"] = wp.point.latitude_deg;
    obj["longitude"] = wp.point.longitude_deg;
    obj["altitude"] = wp.point.altitude_m;
    obj["max-radius"] = wp.max_radius_m;
    wps.emplace_back(std::move(obj));
  }
  root["waypoints"] = JsonValue(std::move(wps));
  root["max-duration"] = max_duration_s;
  root["energy-allotted"] = energy_allotted_j;
  auto to_array = [](const std::vector<std::string>& v) {
    JsonArray arr;
    for (const std::string& s : v) {
      arr.push_back(JsonValue(s));
    }
    return JsonValue(std::move(arr));
  };
  root["continuous-devices"] = to_array(continuous_devices);
  root["waypoint-devices"] = to_array(waypoint_devices);
  root["apps"] = to_array(apps);
  root["app-args"] = app_args;
  return JsonValue(std::move(root)).DumpPretty();
}

Status VirtualDroneDefinition::Validate() const {
  if (waypoints.empty()) {
    return InvalidArgumentError("definition needs at least one waypoint");
  }
  if (max_duration_s <= 0 || energy_allotted_j <= 0) {
    return InvalidArgumentError("allotments must be positive");
  }
  for (const WaypointSpec& wp : waypoints) {
    if (wp.max_radius_m <= 0) {
      return InvalidArgumentError("waypoint max-radius must be positive");
    }
  }
  for (const std::string& device : continuous_devices) {
    if (!DeviceToPermission(device).has_value()) {
      return InvalidArgumentError("unknown continuous device '" + device + "'");
    }
    if (device == kDeviceFlightControl) {
      // Paper §3: "Flight control can only be specified as a waypoint
      // device, not a continuous device."
      return InvalidArgumentError(
          "flight-control cannot be a continuous device");
    }
  }
  for (const std::string& device : waypoint_devices) {
    if (!DeviceToPermission(device).has_value()) {
      return InvalidArgumentError("unknown waypoint device '" + device + "'");
    }
  }
  return OkStatus();
}

bool VirtualDroneDefinition::WantsDevice(const std::string& device) const {
  return std::find(waypoint_devices.begin(), waypoint_devices.end(), device) !=
             waypoint_devices.end() ||
         WantsDeviceContinuously(device);
}

bool VirtualDroneDefinition::WantsDeviceContinuously(
    const std::string& device) const {
  return std::find(continuous_devices.begin(), continuous_devices.end(),
                   device) != continuous_devices.end();
}

bool VirtualDroneDefinition::WantsFlightControl() const {
  return std::find(waypoint_devices.begin(), waypoint_devices.end(),
                   kDeviceFlightControl) != waypoint_devices.end();
}

}  // namespace androne
