// Transport-agnostic ara::com binding contract.
//
// The ara::com layer (Runtime, ServiceProxy/ServiceSkeleton and the typed
// method/event/field templates) and the DEAR transactors talk to transports
// exclusively through this interface. Concrete backends:
//   * SomeIpBinding — the paper's modified SOME/IP stack over a
//     net::Network (someip_binding.hpp),
//   * LocalBinding  — zero-copy intra-process transport for co-located
//     SWCs (local_binding.hpp).
// A Runtime selects the backend per InstanceIdentifier through its
// BindingRegistry + DeploymentConfig (binding_registry.hpp).
//
// The in-memory message representation is the SOME/IP framing structure
// (someip::Message): service/method/client/session ids are AUTOSAR-level
// identifiers, not transport details. Whether a backend serializes the
// structure to a wire format (SOME/IP) or moves it through process memory
// (local) is its own business.
//
// DEAR's timestamp bypass (paper §III.B, Figure 3) is part of the contract,
// not a SOME/IP implementation detail: attach_send_tag() arms the tag the
// backend must carry on its next outgoing message, and
// collect_received_tag() surrenders the tag of the message currently being
// delivered. Both rely on the synchronous call nesting between transactor
// and binding, exactly as in the paper.
//
// Payloads passed to call, call_no_return, respond and notify are consumed:
// the backend recycles their storage into common::BufferPool once the
// message is sent or delivered. Build them with someip::encode_payload (or
// BufferPool::acquire / acquire_copy), never as plain vectors — every
// buffer released into the pool must have been acquired from it, or the
// pool grows to its byte budget.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/time.hpp"
#include "net/endpoint.hpp"
#include "obs/obs.hpp"
#include "someip/message.hpp"
#include "someip/types.hpp"

namespace dear::ft {
class FaultPlan;
}  // namespace dear::ft

namespace dear::ara::com {

/// Transport-level traffic counters, uniform across backends.
struct TransportStats {
  std::uint64_t requests_sent{0};
  std::uint64_t responses_received{0};
  std::uint64_t notifications_sent{0};
  std::uint64_t notifications_received{0};
  std::uint64_t tagged_sent{0};
  std::uint64_t tagged_received{0};
  std::uint64_t malformed_received{0};
  std::uint64_t timeouts{0};
};

class TransportBinding {
 public:
  using ResponseHandler = std::function<void(const someip::Message&)>;
  using RequestHandler = std::function<void(const someip::Message&, const net::Endpoint& from)>;
  using NotificationHandler = std::function<void(const someip::Message&)>;

  virtual ~TransportBinding() = default;

  // --- client role ---------------------------------------------------------

  /// Sends a method request. `on_response` fires (from the backend's
  /// receive path) with the response or, if `timeout` > 0 elapses first,
  /// with a synthesized kTimeout error message. Returns the session id.
  virtual someip::SessionId call(const net::Endpoint& server, someip::ServiceId service,
                                 someip::MethodId method, std::vector<std::uint8_t> payload,
                                 ResponseHandler on_response, Duration timeout = 0) = 0;

  /// Fire-and-forget request (REQUEST_NO_RETURN).
  virtual void call_no_return(const net::Endpoint& server, someip::ServiceId service,
                              someip::MethodId method, std::vector<std::uint8_t> payload) = 0;

  /// Subscribes to event notifications from `server`. The handler runs on
  /// the backend's receive path.
  virtual void subscribe(const net::Endpoint& server, someip::ServiceId service,
                         someip::EventId event, NotificationHandler handler) = 0;

  virtual void unsubscribe(const net::Endpoint& server, someip::ServiceId service,
                           someip::EventId event) = 0;

  // --- server role ---------------------------------------------------------

  /// Registers the handler for incoming requests to (service, method).
  virtual void provide_method(someip::ServiceId service, someip::MethodId method,
                              RequestHandler handler) = 0;

  virtual void remove_method(someip::ServiceId service, someip::MethodId method) = 0;

  /// Sends the response for `request` back to `to`.
  virtual void respond(const someip::Message& request, const net::Endpoint& to,
                       std::vector<std::uint8_t> payload,
                       someip::ReturnCode return_code = someip::ReturnCode::kOk) = 0;

  /// Sends a notification for (service, event) to all subscribers.
  virtual void notify(someip::ServiceId service, someip::EventId event,
                      std::vector<std::uint8_t> payload) = 0;

  /// Sends a published loaned slab to all subscribers (the sensor data
  /// plane). Backends that understand slabs move the handle — LocalBinding
  /// fans the same storage out by refcount, SomeIpBinding frames header +
  /// tag trailer around the bytes without serializing them. The default
  /// materializes a vector (one counted copy) and falls back to notify(),
  /// keeping other transports source-compatible.
  virtual void notify_loaned(someip::ServiceId service, someip::EventId event,
                             common::LoanedBuffer payload) {
    if (!payload) {
      return;
    }
    obs::count_always(obs::Counter::kDataplanePayloadCopies);
    std::vector<std::uint8_t> bytes = common::BufferPool::instance().acquire(payload.size());
    bytes.assign(payload.data(), payload.data() + payload.size());
    notify(service, event, std::move(bytes));
  }

  [[nodiscard]] virtual std::size_t subscriber_count(someip::ServiceId service,
                                                     someip::EventId event) const = 0;

  // --- DEAR pending-tag contract (paper Figure 3) ---------------------------

  /// Arms the logical tag the backend attaches to its next outgoing
  /// message (steps 2/5 and 13/16).
  virtual void attach_send_tag(const someip::WireTag& tag) = 0;

  /// Surrenders the tag deposited for the message currently being
  /// delivered, or nullopt for untagged traffic (steps 7/10 and 18/21).
  [[nodiscard]] virtual std::optional<someip::WireTag> collect_received_tag() = 0;

  /// True while a received tag is waiting to be collected.
  [[nodiscard]] virtual bool received_tag_armed() const = 0;

  /// Returns the armed send tag without disarming it, or nullopt when no
  /// tag is pending. The retry layer records it so a retried attempt can
  /// re-arm the original tag advanced by its logical backoff.
  [[nodiscard]] virtual std::optional<someip::WireTag> peek_send_tag() const {
    return std::nullopt;
  }

  // --- deterministic fault injection (ft/fault_model.hpp) -------------------

  /// Installs (or clears, with nullptr) the shared injection plan. The
  /// plan must outlive the binding. Backends without injection support
  /// ignore it — the default keeps existing transports source-compatible.
  virtual void set_fault_plan(const ft::FaultPlan* /*plan*/) {}
  [[nodiscard]] virtual const ft::FaultPlan* fault_plan() const noexcept { return nullptr; }

  // --- identity + statistics -----------------------------------------------

  [[nodiscard]] virtual net::Endpoint endpoint() const noexcept = 0;
  [[nodiscard]] virtual someip::ClientId client_id() const noexcept = 0;
  [[nodiscard]] virtual TransportStats stats() const = 0;

  /// Short transport identifier for logs/benches, e.g. "someip" or "local".
  [[nodiscard]] virtual std::string_view transport_name() const noexcept = 0;
};

}  // namespace dear::ara::com
