// SOME/IP message framing.
//
// Standard 16-byte header:
//   message id (service id u16 | method id u16)
//   length u32                  — bytes after this field
//   request id (client id u16 | session id u16)
//   protocol version u8, interface version u8, message type u8, return code u8
// followed by the payload.
//
// DEAR extension: when protocol version == kTaggedProtocolVersion, a 12-byte
// tag trailer (logical time i64, microstep u32) follows the payload. The
// trailer is covered by the length field, so standard-compliant peers that
// reject protocol version 2 simply drop the message, and peers running the
// extension interoperate with untagged version-1 senders.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/buffer_pool.hpp"
#include "someip/serialization.hpp"
#include "someip/types.hpp"

namespace dear::someip {

/// Logical tag on the wire (paper §III.B).
struct WireTag {
  std::int64_t time{0};
  std::uint32_t microstep{0};

  bool operator==(const WireTag&) const = default;
};

inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kTagTrailerSize = 12;

struct Message {
  ServiceId service{0};
  MethodId method{0};
  ClientId client{0};
  SessionId session{0};
  std::uint8_t interface_version{1};
  MessageType type{MessageType::kRequest};
  ReturnCode return_code{ReturnCode::kOk};
  std::vector<std::uint8_t> payload;
  /// Loaned-slab payload (sensor data plane). When set it replaces
  /// `payload`: encode frames header + trailer around the slab bytes
  /// without serializing them, and the local backend hands the handle
  /// itself to subscribers — payload never copied at all.
  common::LoanedBuffer loaned;
  /// Present on messages sent through the tagged (DEAR-extended) binding.
  std::optional<WireTag> tag;

  /// Header of a notification for (service, event) sent by `client`.
  [[nodiscard]] static Message notification(ServiceId service, EventId event, ClientId client) {
    Message message;
    message.service = service;
    message.method = event;
    message.client = client;
    message.type = MessageType::kNotification;
    return message;
  }

  /// Bytes of application payload (loaned slab wins over the vector).
  [[nodiscard]] std::size_t payload_size() const noexcept {
    return loaned ? loaned.size() : payload.size();
  }

  /// Total bytes encode() will produce.
  [[nodiscard]] std::size_t encoded_size() const noexcept {
    return kHeaderSize + payload_size() + (tag.has_value() ? kTagTrailerSize : 0);
  }

  /// Serializes header + payload (+ tag trailer when tag is set).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Serializes into `out` (cleared, capacity retained) — the pooled path:
  /// a warm buffer makes encoding allocation-free.
  void encode_into(std::vector<std::uint8_t>& out) const;

  /// Parses a datagram. Returns nullopt on malformed input (short buffer,
  /// inconsistent length field, unknown protocol version).
  [[nodiscard]] static std::optional<Message> decode(const std::vector<std::uint8_t>& bytes);

  /// Parses into `out`, reusing its payload capacity (the receive-path
  /// variant: one scratch Message per binding, zero allocations per warm
  /// message). Returns false on malformed input; `out` is unspecified then.
  [[nodiscard]] static bool decode_into(const std::uint8_t* bytes, std::size_t size,
                                        Message& out);

  [[nodiscard]] bool is_request() const noexcept {
    return type == MessageType::kRequest || type == MessageType::kRequestNoReturn;
  }
  [[nodiscard]] bool is_response() const noexcept {
    return type == MessageType::kResponse || type == MessageType::kError;
  }
  [[nodiscard]] bool is_notification() const noexcept {
    return type == MessageType::kNotification;
  }
};

}  // namespace dear::someip
