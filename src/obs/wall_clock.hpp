#pragma once

// The library's one wall-clock source.
//
// Everything on the SPMD training path runs on the modeled Clock; wall time
// belongs only to layers that measure the real host: serving latency, the
// load generator's throughput, and the benches' records per second.  They
// all read it here, the one PDC001 exemption in the library.

#include <chrono>

namespace pdc::obs {

/// Seconds on a monotonic host clock; only differences are meaningful.
inline double wall_seconds() {
  using WallClock = std::chrono::steady_clock;  // pdc-lint: allow(PDC001) -- host wall time for serving and benches, outside the modeled timeline
  return std::chrono::duration<double>(WallClock::now().time_since_epoch())
      .count();
}

}  // namespace pdc::obs
