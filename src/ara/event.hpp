// Typed service events.
//
// "Events are one-way messages that the server initiates and the client
// handles" (paper §II.A). SkeletonEvent::Send serializes the sample and
// notifies every subscriber; ProxyEvent delivers decoded samples to the
// registered receive handler on the binding's receive path.
// Events typed as common::LoanedBuffer ride the sensor data plane: Send
// forwards the handle through notify_loaned (no serialization), and the
// proxy hands subscribers the slab the producer published — over the local
// transport the very same storage, over SOME/IP a slab rehydrated from the
// wire bytes.
#pragma once

#include <cstring>
#include <functional>
#include <mutex>
#include <type_traits>
#include <utility>

#include "ara/proxy.hpp"
#include "ara/skeleton.hpp"
#include "common/buffer_pool.hpp"
#include "common/slot_table.hpp"
#include "someip/serialization.hpp"

namespace dear::ara {

template <typename T>
class SkeletonEvent {
 public:
  SkeletonEvent(ServiceSkeleton& skeleton, someip::EventId event)
      : skeleton_(skeleton), event_(event) {}

  /// Sends one sample to all current subscribers. No-op on a
  /// transport-less skeleton.
  void Send(const T& sample) {
    com::TransportBinding* binding = skeleton_.binding();
    if (binding == nullptr) {
      return;
    }
    if constexpr (std::is_same_v<T, common::LoanedBuffer>) {
      binding->notify_loaned(skeleton_.instance().service, event_, sample);
    } else {
      binding->notify(skeleton_.instance().service, event_, someip::encode_payload(sample));
    }
  }

  [[nodiscard]] std::size_t subscriber_count() const {
    com::TransportBinding* binding = skeleton_.binding();
    return binding == nullptr
               ? 0
               : binding->subscriber_count(skeleton_.instance().service, event_);
  }

  [[nodiscard]] someip::EventId id() const noexcept { return event_; }

 private:
  ServiceSkeleton& skeleton_;
  someip::EventId event_;
};

template <typename T>
class ProxyEvent {
 public:
  using ReceiveHandler = std::function<void(const T&)>;

  ProxyEvent(ServiceProxy& proxy, someip::EventId event) : proxy_(proxy), event_(event) {}

  ~ProxyEvent() {
    if (subscribed_) {
      Unsubscribe();
    }
  }

  /// Registers the handler invoked for every incoming sample. Must be set
  /// before Subscribe(). The handler is dispatched onto the runtime's
  /// dispatcher (as ara::com event receive handlers are), so its
  /// invocation time — and the relative order of handlers for different
  /// events — is up to the scheduler.
  void SetReceiveHandler(ReceiveHandler handler) {
    handler_ = std::move(handler);
    immediate_ = false;
  }

  /// Registers a handler that runs synchronously on the binding's receive
  /// path. Needed by the DEAR client event transactor, which must observe
  /// the timestamp bypass while the notification is current (paper
  /// Figure 3). The handler must be cheap and thread-safe.
  void SetImmediateReceiveHandler(ReceiveHandler handler) {
    handler_ = std::move(handler);
    immediate_ = true;
  }

  /// No-op on a transport-less proxy (subscribed() stays false).
  void Subscribe() {
    com::TransportBinding* binding = proxy_.binding();
    if (binding == nullptr) {
      return;
    }
    subscribed_ = true;
    binding->subscribe(
        proxy_.server(), proxy_.instance().service, event_,
        [this](const someip::Message& message) {
          T sample{};
          if constexpr (std::is_same_v<T, common::LoanedBuffer>) {
            if (message.loaned) {
              sample = message.loaned;  // local transport: retain the producer's slab
            } else {
              // Wire transport: the payload arrived as bytes; rehydrate a
              // slab so the subscriber sees the same type either way. The
              // copy is the wire's, not the data plane's — counted so the
              // zero-copy gate can prove the local path never takes it.
              sample = common::BufferPool::instance().loan(message.payload.size());
              if (!message.payload.empty()) {
                obs::count_always(obs::Counter::kDataplanePayloadCopies);
                std::memcpy(sample.data(), message.payload.data(), message.payload.size());
              }
              sample.publish(message.payload.size());
            }
          } else {
            if (!someip::decode_payload(message.payload, sample)) {
              return;  // malformed notification; drop
            }
          }
          if (!handler_) {
            return;
          }
          if (immediate_) {
            handler_(sample);
          } else {
            dispatch(std::move(sample));
          }
        });
  }

  void Unsubscribe() {
    com::TransportBinding* binding = proxy_.binding();
    subscribed_ = false;
    if (binding == nullptr) {
      return;
    }
    binding->unsubscribe(proxy_.server(), proxy_.instance().service, event_);
  }

  [[nodiscard]] bool subscribed() const noexcept { return subscribed_; }
  [[nodiscard]] someip::EventId id() const noexcept { return event_; }

 private:
  /// Posts the handler call. The sample waits in a slot table, so the task
  /// is [this, slot] and dispatching allocates nothing once warm.
  void dispatch(T sample) {
    std::size_t slot = 0;
    {
      const std::lock_guard<std::mutex> lock(dispatch_mutex_);
      slot = dispatched_.put(std::move(sample));
    }
    proxy_.runtime().dispatcher().post([this, slot] {
      T sample;
      {
        const std::lock_guard<std::mutex> lock(dispatch_mutex_);
        sample = dispatched_.take(slot);
      }
      handler_(sample);
    });
  }

  ServiceProxy& proxy_;
  someip::EventId event_;
  ReceiveHandler handler_;
  bool subscribed_{false};
  bool immediate_{false};
  /// Samples between receive and dispatched handler run (the receive path
  /// and the dispatcher may be different threads).
  std::mutex dispatch_mutex_;
  common::SlotTable<T> dispatched_;
};

}  // namespace dear::ara
