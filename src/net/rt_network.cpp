#include "net/rt_network.hpp"

#include <utility>

#include "common/buffer_pool.hpp"

namespace dear::net {

RtNetwork::~RtNetwork() {
  // Packets whose delivery task never ran (executor torn down with posts
  // still queued) return their payloads to the pool.
  in_flight_.for_each([](Packet& packet) {
    common::BufferPool::instance().release(std::move(packet.payload));
  });
}

void RtNetwork::send(Endpoint source, Endpoint destination, std::vector<std::uint8_t> payload) {
  Packet packet;
  packet.source = source;
  packet.destination = destination;
  packet.payload = std::move(payload);
  packet.send_time = executor_.now();
  std::size_t slot = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++sent_;
    slot = in_flight_.put(std::move(packet));
  }
  executor_.post([this, slot] { deliver(slot); });
}

void RtNetwork::deliver(std::size_t slot) {
  Packet packet;
  ReceiveHandler handler;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    packet = in_flight_.take(slot);
    const auto it = receivers_.find(packet.destination);
    if (it == receivers_.end()) {
      ++dropped_;
    } else {
      handler = it->second;
      ++delivered_;
    }
  }
  if (handler) {
    packet.receive_time = executor_.now();
    handler(packet);
  }
  // The wire buffer came from the pool in the sending binding; hand it
  // back now that the receive handler is done with it.
  common::BufferPool::instance().release(std::move(packet.payload));
}

}  // namespace dear::net
