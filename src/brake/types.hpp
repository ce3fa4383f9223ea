// Data types flowing through the brake assistant pipeline (paper Figure 4).
//
// The paper's errors are coordination errors, not vision errors, so the
// payloads carry deterministic synthetic content derived from the frame
// id. Every value downstream records which frame(s) produced it, which
// makes drops and misalignment exactly detectable.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/inline_vector.hpp"
#include "someip/serialization.hpp"

namespace dear::brake {

struct VideoFrame {
  std::uint64_t frame_id{0};
  /// Capture time on the camera's clock (ns).
  std::int64_t capture_time{0};
  std::uint16_t width{1280};
  std::uint16_t height{720};
  /// Stand-in for pixel data: deterministic function of frame_id.
  std::uint64_t content_hash{0};

  bool operator==(const VideoFrame&) const = default;
};

struct LaneInfo {
  /// Frame this lane estimate was computed from.
  std::uint64_t frame_id{0};
  /// Bounding box demarcating the travel lane (pixels).
  std::uint16_t left{0};
  std::uint16_t right{0};
  std::uint16_t top{0};
  std::uint16_t bottom{0};
  double confidence{0.0};

  bool operator==(const LaneInfo&) const = default;
};

struct Vehicle {
  std::uint32_t vehicle_id{0};
  /// Estimated distance to the vehicle ahead (meters).
  double distance_m{0.0};
  /// Estimated closing speed (m/s, positive = approaching).
  double closing_speed{0.0};

  bool operator==(const Vehicle&) const = default;
};

/// Vehicles one detection can report; detect_vehicles yields at most 3.
/// Held inline so a list is copied and decoded without the allocator; a
/// wire list longer than this fails to decode.
inline constexpr std::size_t kMaxVehicles = 4;

struct VehicleList {
  /// Frame the detection ran on.
  std::uint64_t frame_id{0};
  /// Frame the lane information came from; != frame_id means the inputs
  /// were misaligned (paper §IV.A).
  std::uint64_t lane_frame_id{0};
  common::InlineVector<Vehicle, kMaxVehicles> vehicles;

  bool operator==(const VehicleList&) const = default;
};

struct BrakeCommand {
  std::uint64_t frame_id{0};
  bool brake{false};
  /// Brake intensity in [0, 1].
  double intensity{0.0};

  bool operator==(const BrakeCommand&) const = default;
};

// --- SOME/IP codecs ---------------------------------------------------------

inline void someip_serialize(someip::Writer& w, const VideoFrame& v) {
  w.write_u64(v.frame_id);
  w.write_i64(v.capture_time);
  w.write_u16(v.width);
  w.write_u16(v.height);
  w.write_u64(v.content_hash);
}

inline void someip_deserialize(someip::Reader& r, VideoFrame& v) {
  v.frame_id = r.read_u64();
  v.capture_time = r.read_i64();
  v.width = r.read_u16();
  v.height = r.read_u16();
  v.content_hash = r.read_u64();
}

inline void someip_serialize(someip::Writer& w, const LaneInfo& v) {
  w.write_u64(v.frame_id);
  w.write_u16(v.left);
  w.write_u16(v.right);
  w.write_u16(v.top);
  w.write_u16(v.bottom);
  w.write_f64(v.confidence);
}

inline void someip_deserialize(someip::Reader& r, LaneInfo& v) {
  v.frame_id = r.read_u64();
  v.left = r.read_u16();
  v.right = r.read_u16();
  v.top = r.read_u16();
  v.bottom = r.read_u16();
  v.confidence = r.read_f64();
}

inline void someip_serialize(someip::Writer& w, const Vehicle& v) {
  w.write_u32(v.vehicle_id);
  w.write_f64(v.distance_m);
  w.write_f64(v.closing_speed);
}

inline void someip_deserialize(someip::Reader& r, Vehicle& v) {
  v.vehicle_id = r.read_u32();
  v.distance_m = r.read_f64();
  v.closing_speed = r.read_f64();
}

inline void someip_serialize(someip::Writer& w, const VehicleList& v) {
  w.write_u64(v.frame_id);
  w.write_u64(v.lane_frame_id);
  someip_serialize(w, v.vehicles);
}

inline void someip_deserialize(someip::Reader& r, VehicleList& v) {
  v.frame_id = r.read_u64();
  v.lane_frame_id = r.read_u64();
  someip_deserialize(r, v.vehicles);
}

inline void someip_serialize(someip::Writer& w, const BrakeCommand& v) {
  w.write_u64(v.frame_id);
  w.write_bool(v.brake);
  w.write_f64(v.intensity);
}

inline void someip_deserialize(someip::Reader& r, BrakeCommand& v) {
  v.frame_id = r.read_u64();
  v.brake = r.read_bool();
  v.intensity = r.read_f64();
}

}  // namespace dear::brake
