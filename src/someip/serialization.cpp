#include "someip/serialization.hpp"

namespace dear::someip {

void Writer::write_bytes(const std::uint8_t* data, std::size_t size) {
  bytes_.insert(bytes_.end(), data, data + size);
}

void Writer::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  write_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

// Bounds checks compare count against the remaining bytes (size_ -
// position_) rather than position_ + count, which could wrap for a hostile
// length field and authorize an out-of-range read.

std::string Reader::read_string() {
  const std::uint32_t size = read_u32();
  if (!ok_ || size > size_ - position_) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + position_), size);
  position_ += size;
  return s;
}

std::string_view Reader::read_string_view() noexcept {
  const std::uint32_t size = read_u32();
  if (!ok_ || size > size_ - position_) {
    ok_ = false;
    return {};
  }
  const std::string_view view(reinterpret_cast<const char*>(data_ + position_), size);
  position_ += size;
  return view;
}

const std::uint8_t* Reader::view_bytes(std::size_t count) noexcept {
  if (!ok_ || count > size_ - position_) {
    ok_ = false;
    return nullptr;
  }
  const std::uint8_t* view = data_ + position_;
  position_ += count;
  return view;
}

bool Reader::read_bytes(std::uint8_t* out, std::size_t count) noexcept {
  if (!ok_ || count > size_ - position_) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_ + position_, count);
  position_ += count;
  return true;
}

}  // namespace dear::someip
