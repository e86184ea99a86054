// mp::WireWriter / mp::WireReader negative fixture (PDA510 + PDA520).
//
// The codec pair of good_wire_codec.cpp used wrongly: a bare get<T>()
// value sizes an allocation and bounds a loop with no check against the
// buffer (get_count() is the bounded read), and a writer puts the address
// of a field instead of its value.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fixture {

// Declarations only: the bodies are those of good_wire_codec.cpp.
class WireWriter {
 public:
  template <class T>
  void put(const T& v);
};

class WireReader {
 public:
  template <class T>
  T get();
};

inline std::vector<float> read_values(WireReader& r) {
  std::vector<float> values;
  const auto n = r.get<std::uint64_t>();
  values.resize(n);  // expect-PDA510 (allocation size)
  return values;
}

inline std::uint64_t read_sum(WireReader& r) {
  const auto count = r.get<std::uint64_t>();
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < count; ++i) {  // expect-PDA510 (loop bound)
    sum += i;
  }
  return sum;
}

struct Session {
  std::uint64_t seq = 0;
};

inline void write_session(const Session& s) {
  WireWriter w;
  w.put(&s.seq);  // expect-PDA520 (address as a value)
}

}  // namespace fixture
