// Values parked under an integer slot until a deferred callback claims
// them. A callback that captures [owner, slot] is trivially copyable and
// fits std::function's inline storage, so deferring a value this way
// allocates nothing once the table has grown to its peak occupancy —
// capturing the value itself would put every closure on the heap.
// Single-threaded; callers that share a table across threads lock around
// put/take.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dear::common {

template <typename T>
class SlotTable {
 public:
  /// Parks `value`; the returned slot stays reserved until take().
  [[nodiscard]] std::size_t put(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return slots_.size() - 1;
    }
    const std::size_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value out and frees the slot.
  [[nodiscard]] T take(std::size_t slot) {
    T value = std::move(slots_[slot]);
    free_.push_back(slot);
    return value;
  }

  /// Visits every slot, claimed ones included (they hold moved-from values).
  template <typename F>
  void for_each(F&& visit) {
    for (T& value : slots_) {
      visit(value);
    }
  }

 private:
  std::vector<T> slots_;
  std::vector<std::size_t> free_;
};

}  // namespace dear::common
