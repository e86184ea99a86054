// mp::WireWriter / mp::WireReader clean fixture (PDA510 + PDA520).
//
// A trimmed copy of the codec pair in src/mp/serialize.hpp and a format
// built on it (no put_x/get_x pair shares a suffix, so the file adds no
// codec pair of its own to the PDA500 inventory).  Counts come from get_count(), which rejects what the
// buffer cannot hold, so they may size allocations and bound loops; the
// writer's put calls take values, never addresses.  Nothing here may
// fire.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fixture {

class WireWriter {
 public:
  template <class T>
  void put(const T& v) {
    const auto at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }
  std::vector<std::byte> take() && { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> in) : in_(in) {}

  template <class T>
  T get() {
    if (sizeof(T) > in_.size() - at_) throw std::runtime_error("truncated");
    T v;
    std::memcpy(&v, in_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }
  template <class T>
  std::vector<T> get_raw(std::size_t n) {
    if (n > (in_.size() - at_) / sizeof(T)) {
      throw std::runtime_error("truncated");
    }
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), in_.data() + at_, n * sizeof(T));
    at_ += n * sizeof(T);
    return v;
  }
  template <class T>
  std::vector<T> get_vec() {
    return get_raw<T>(get_count(sizeof(T)));
  }
  std::size_t get_count(std::size_t min_bytes_each) {
    const auto n = get<std::uint64_t>();
    if (n > (in_.size() - at_) / min_bytes_each) {
      throw std::runtime_error("count overruns the buffer");
    }
    return static_cast<std::size_t>(n);
  }

 private:
  std::span<const std::byte> in_;
  std::size_t at_ = 0;
};

struct Level {
  std::uint32_t id = 0;
  std::vector<float> values;
};

inline std::vector<std::byte> encode_levels(const std::vector<Level>& levels) {
  WireWriter w;
  w.put<std::uint64_t>(levels.size());
  for (const auto& lvl : levels) {
    w.put(lvl.id);
    w.put<std::uint64_t>(lvl.values.size());
    for (const float v : lvl.values) w.put(v);
  }
  return std::move(w).take();
}

inline std::vector<Level> decode_levels(std::span<const std::byte> in) {
  WireReader r(in);
  std::vector<Level> levels;
  // Every level costs at least its id and a vector header.
  const auto n = r.get_count(sizeof(std::uint32_t) + sizeof(std::uint64_t));
  levels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Level lvl;
    lvl.id = r.get<std::uint32_t>();
    lvl.values = r.get_vec<float>();
    levels.push_back(std::move(lvl));
  }
  return levels;
}

}  // namespace fixture
