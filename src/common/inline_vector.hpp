// Fixed-capacity vector stored inline (no heap). For per-frame values
// whose element count has a small known bound: copying, decoding or
// building one never touches the allocator, and a value that would exceed
// the bound fails loudly instead of growing.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>

namespace dear::common {

template <typename T, std::size_t N>
class InlineVector {
 public:
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return N; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Appends; throws std::length_error when the inline capacity is full.
  void push_back(const T& value) {
    if (size_ == N) {
      throw std::length_error("InlineVector capacity exceeded");
    }
    items_[size_++] = value;
  }

  void clear() noexcept { size_ = 0; }

  [[nodiscard]] T& operator[](std::size_t index) noexcept { return items_[index]; }
  [[nodiscard]] const T& operator[](std::size_t index) const noexcept { return items_[index]; }

  [[nodiscard]] T* begin() noexcept { return items_.data(); }
  [[nodiscard]] T* end() noexcept { return items_.data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return items_.data(); }
  [[nodiscard]] const T* end() const noexcept { return items_.data() + size_; }

  /// Element-wise over the live prefix; unused slots never compare.
  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<T, N> items_{};
  std::size_t size_{0};
};

}  // namespace dear::common
