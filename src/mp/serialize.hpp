#pragma once

// Byte (de)serialization for trivially-copyable value types moved through
// the message-passing layer or written to a rank's disk, and the one wire
// codec every multi-field format is built from: WireWriter appends values
// in native layout, WireReader takes them back with a bounds check on
// every read.  This is the only file that turns values into bytes; every
// other codec is a sequence of put/get calls.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/wire.hpp"

namespace pdc::mp {

template <class T>
concept Wireable = std::is_trivially_copyable_v<T>;

/// Appends values to a growing byte buffer in native layout.  A counted
/// array is a u64 element count followed by the raw elements; a string is
/// a counted array of chars.
class WireWriter {
 public:
  template <Wireable T>
  void put(const T& v) {
    put_raw(std::span<const T>(&v, 1));
  }

  /// The raw elements, with no count in front.
  template <Wireable T>
  void put_raw(std::span<const T> v) {
    const auto at = out_.size();
    out_.resize(at + v.size_bytes());
    if (!v.empty()) std::memcpy(out_.data() + at, v.data(), v.size_bytes());
  }

  template <Wireable T>
  void put_vec(std::span<const T> v) {
    put<std::uint64_t>(v.size());
    put_raw(v);
  }

  void put_string(std::string_view s) {
    put_vec<char>(std::span<const char>(s.data(), s.size()));
  }

  std::span<const std::byte> bytes() const { return out_; }
  std::vector<std::byte> take() && { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

/// Reads back what a WireWriter wrote.  Every read that would run past the
/// end of the buffer throws WireError, and a count is checked against the
/// bytes left before it can size an allocation.  `what` names the format
/// in error messages.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> in,
                      std::string_view what = "mp: wire blob")
      : in_(in), what_(what) {}

  template <Wireable T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, in_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }

  /// `n` raw elements, with no count in front.
  template <Wireable T>
  std::vector<T> get_raw(std::size_t n) {
    if (n > remaining() / sizeof(T)) fail("truncated");
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), in_.data() + at_, n * sizeof(T));
    at_ += n * sizeof(T);
    return v;
  }

  template <Wireable T>
  std::vector<T> get_vec() {
    return get_raw<T>(get_count(sizeof(T)));
  }

  std::string get_string() {
    const auto chars = get_vec<char>();
    return {chars.begin(), chars.end()};
  }

  /// A u64 count of items that each take at least `min_bytes_each` bytes
  /// on the wire; a count the bytes left cannot hold is rejected before
  /// the caller allocates anything for it.
  std::size_t get_count(std::size_t min_bytes_each) {
    const auto n = get<std::uint64_t>();
    if (n > remaining() / std::max<std::size_t>(min_bytes_each, 1)) {
      fail("count overruns the buffer");
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return in_.size() - at_; }

  /// Rejects bytes left over after the last field.
  void expect_end() const {
    if (at_ != in_.size()) fail("trailing bytes");
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining()) fail("truncated");
  }

  [[noreturn]] void fail(std::string_view why) const {
    throw WireError(std::string(what_) + ": " + std::string(why));
  }

  std::span<const std::byte> in_;
  std::size_t at_ = 0;
  std::string_view what_;
};

/// A flat array as bytes, and back.
template <Wireable T>
std::vector<std::byte> to_bytes(std::span<const T> data) {
  WireWriter w;
  w.put_raw(data);
  return std::move(w).take();
}

template <Wireable T>
std::vector<std::byte> to_bytes(const T& value) {
  return to_bytes(std::span<const T>(&value, 1));
}

template <Wireable T>
std::vector<T> from_bytes(std::span<const std::byte> bytes) {
  if (bytes.size() % sizeof(T) != 0) {
    throw WireError("mp: blob length is not a multiple of the element size");
  }
  return WireReader(bytes).get_raw<T>(bytes.size() / sizeof(T));
}

template <Wireable T>
T value_from_bytes(std::span<const std::byte> bytes) {
  if (bytes.size() != sizeof(T)) {
    throw WireError("mp: value blob length mismatch");
  }
  return WireReader(bytes).get<T>();
}

}  // namespace pdc::mp
