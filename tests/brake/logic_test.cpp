#include "brake/logic.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dear::brake {
namespace {

TEST(FrameGeneration, DeterministicInFrameId) {
  const VideoFrame a = generate_frame(42, 1000);
  const VideoFrame b = generate_frame(42, 9999);
  EXPECT_EQ(a.content_hash, b.content_hash) << "content depends only on frame id";
  EXPECT_EQ(a.frame_id, 42u);
  EXPECT_EQ(a.capture_time, 1000);
  EXPECT_NE(a.content_hash, generate_frame(43, 1000).content_hash);
}

TEST(LaneDetection, DeterministicAndTaggedWithFrameId) {
  const VideoFrame frame = generate_frame(7, 0);
  const LaneInfo lane1 = detect_lane(frame);
  const LaneInfo lane2 = detect_lane(frame);
  EXPECT_EQ(lane1, lane2);
  EXPECT_EQ(lane1.frame_id, 7u);
  EXPECT_LT(lane1.left, lane1.right);
  EXPECT_LE(lane1.bottom, frame.height);
  EXPECT_GE(lane1.confidence, 0.7);
  EXPECT_LE(lane1.confidence, 1.0);
}

TEST(LaneDetection, VariesAcrossFrames) {
  std::set<std::uint16_t> lefts;
  for (std::uint64_t id = 0; id < 50; ++id) {
    lefts.insert(detect_lane(generate_frame(id, 0)).left);
  }
  EXPECT_GT(lefts.size(), 10u);
}

TEST(VehicleDetection, RecordsBothSourceFrameIds) {
  const VideoFrame frame = generate_frame(10, 0);
  const LaneInfo lane = detect_lane(generate_frame(12, 0));  // misaligned!
  const VehicleList list = detect_vehicles(frame, lane);
  EXPECT_EQ(list.frame_id, 10u);
  EXPECT_EQ(list.lane_frame_id, 12u);
}

TEST(VehicleDetection, MisalignedLaneChangesResult) {
  const VideoFrame frame = generate_frame(10, 0);
  const LaneInfo aligned = detect_lane(frame);
  const LaneInfo misaligned = detect_lane(generate_frame(11, 0));
  const VehicleList with_aligned = detect_vehicles(frame, aligned);
  const VehicleList with_misaligned = detect_vehicles(frame, misaligned);
  if (!with_aligned.vehicles.empty()) {
    EXPECT_NE(with_aligned.vehicles, with_misaligned.vehicles)
        << "misalignment must be observable in the detection output";
  }
}

TEST(VehicleDetection, PopulationVariesAcrossFrames) {
  std::set<std::size_t> counts;
  for (std::uint64_t id = 0; id < 100; ++id) {
    const VideoFrame frame = generate_frame(id, 0);
    counts.insert(detect_vehicles(frame, detect_lane(frame)).vehicles.size());
  }
  EXPECT_GE(counts.size(), 3u);  // 0..3 vehicles occur
}

TEST(BrakeDecision, NoVehiclesNoBrake) {
  VehicleList empty;
  empty.frame_id = 5;
  const BrakeCommand command = decide_brake(empty);
  EXPECT_FALSE(command.brake);
  EXPECT_DOUBLE_EQ(command.intensity, 0.0);
  EXPECT_EQ(command.frame_id, 5u);
}

TEST(BrakeDecision, RecedingVehicleNoBrake) {
  VehicleList list;
  list.vehicles.push_back(Vehicle{1, 10.0, -5.0});  // moving away
  EXPECT_FALSE(decide_brake(list).brake);
}

TEST(BrakeDecision, ImminentCollisionBrakes) {
  VehicleList list;
  list.vehicles.push_back(Vehicle{1, 10.0, 10.0});  // TTC = 1 s < 2 s
  const BrakeCommand command = decide_brake(list);
  EXPECT_TRUE(command.brake);
  EXPECT_GT(command.intensity, 0.0);
  EXPECT_LE(command.intensity, 1.0);
}

TEST(BrakeDecision, DistantVehicleNoBrake) {
  VehicleList list;
  list.vehicles.push_back(Vehicle{1, 150.0, 10.0});  // TTC = 15 s
  EXPECT_FALSE(decide_brake(list).brake);
}

TEST(BrakeDecision, ClosestThreateningVehicleWins) {
  VehicleList list;
  list.vehicles.push_back(Vehicle{1, 100.0, 10.0});  // TTC 10
  list.vehicles.push_back(Vehicle{2, 5.0, 10.0});    // TTC 0.5 -> brake hard
  const BrakeCommand command = decide_brake(list);
  EXPECT_TRUE(command.brake);
  EXPECT_GT(command.intensity, 0.5);
}

TEST(ReferencePipeline, StableAndSometimesBrakes) {
  int brakes = 0;
  for (std::uint64_t id = 0; id < 2000; ++id) {
    const BrakeCommand a = reference_decision(id);
    const BrakeCommand b = reference_decision(id);
    EXPECT_EQ(a, b);
    if (a.brake) {
      ++brakes;
    }
  }
  // The synthetic workload exercises both branches of the EBA logic.
  EXPECT_GT(brakes, 10);
  EXPECT_LT(brakes, 1990);
}

TEST(BrakeTypes, CodecRoundTrips) {
  const VideoFrame frame = generate_frame(99, 555);
  const LaneInfo lane = detect_lane(frame);
  const VehicleList vehicles = detect_vehicles(frame, lane);
  const BrakeCommand command = decide_brake(vehicles);

  someip::Writer writer;
  someip_serialize(writer, frame);
  someip_serialize(writer, lane);
  someip_serialize(writer, vehicles);
  someip_serialize(writer, command);

  someip::Reader reader(writer.bytes());
  VideoFrame frame2;
  LaneInfo lane2;
  VehicleList vehicles2;
  BrakeCommand command2;
  someip_deserialize(reader, frame2);
  someip_deserialize(reader, lane2);
  someip_deserialize(reader, vehicles2);
  someip_deserialize(reader, command2);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(frame, frame2);
  EXPECT_EQ(lane, lane2);
  EXPECT_EQ(vehicles, vehicles2);
  EXPECT_EQ(command, command2);
}

TEST(BrakeTypes, VehicleListLongerThanInlineCapacityFailsToDecode) {
  // The wire format is a u32 count plus that many vehicles, as for any
  // dynamic array; a count beyond the inline capacity must fail the reader
  // rather than overrun the list.
  const auto encode_with_count = [](std::uint32_t count, std::uint32_t vehicles_on_wire) {
    someip::Writer writer;
    writer.write_u64(7);
    writer.write_u64(7);
    writer.write_u32(count);
    for (std::uint32_t i = 0; i < vehicles_on_wire; ++i) {
      someip_serialize(writer, Vehicle{i, 10.0, 1.0});
    }
    return writer.take();
  };
  const auto over = static_cast<std::uint32_t>(kMaxVehicles + 1);
  for (const auto& bytes : {encode_with_count(over, over), encode_with_count(0xFFFFFFFFu, 2)}) {
    someip::Reader reader(bytes);
    VehicleList list;
    someip_deserialize(reader, list);
    EXPECT_FALSE(reader.ok());
    EXPECT_LE(reader.position(), bytes.size());
    EXPECT_LE(list.vehicles.size(), kMaxVehicles);
    EXPECT_EQ(reader.read_u32(), 0u) << "a failed reader yields zeros";
    EXPECT_LE(reader.position(), bytes.size());
  }

  // A full inline list still round-trips.
  const auto full = static_cast<std::uint32_t>(kMaxVehicles);
  const std::vector<std::uint8_t> bytes = encode_with_count(full, full);
  someip::Reader reader(bytes);
  VehicleList list;
  someip_deserialize(reader, list);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(list.vehicles.size(), kMaxVehicles);
}

}  // namespace
}  // namespace dear::brake
