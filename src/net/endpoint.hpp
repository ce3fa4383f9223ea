// Network endpoints.
//
// A node models one platform (ECU); a port distinguishes services/bindings
// on that platform, mirroring UDP ports under SOME/IP.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dear::net {

using NodeId = std::uint32_t;
using PortId = std::uint16_t;

struct Endpoint {
  NodeId node{0};
  PortId port{0};

  auto operator<=>(const Endpoint&) const = default;

  [[nodiscard]] std::string to_string() const {
    return "node" + std::to_string(node) + ":" + std::to_string(port);
  }
};

struct EndpointHash {
  [[nodiscard]] std::size_t operator()(const Endpoint& ep) const noexcept {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(ep.node) << 16) | ep.port);
  }
};

/// A subscriber list copied out from under a binding's lock, so the sends
/// run unlocked. Up to kInline endpoints live inline (no allocation per
/// notification); wider fan-outs spill to the heap.
class EndpointSnapshot {
 public:
  void assign(const std::vector<Endpoint>& list) {
    size_ = list.size();
    if (size_ <= kInline) {
      std::copy(list.begin(), list.end(), inline_.begin());
    } else {
      overflow_ = list;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Endpoint* begin() const noexcept {
    return size_ <= kInline ? inline_.data() : overflow_.data();
  }
  [[nodiscard]] const Endpoint* end() const noexcept { return begin() + size_; }
  [[nodiscard]] const Endpoint& operator[](std::size_t index) const noexcept {
    return begin()[index];
  }

 private:
  static constexpr std::size_t kInline = 8;
  std::array<Endpoint, kInline> inline_{};
  std::vector<Endpoint> overflow_;
  std::size_t size_{0};
};

}  // namespace dear::net
