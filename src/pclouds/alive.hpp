#pragma once

// Parallel evaluation of alive intervals (paper, Section 5.1.3), using the
// single-assignment approach: each alive interval is assigned to exactly
// one processor (by LPT over its sorting cost, "based on the cost of
// processing each alive interval, i.e. the sorting cost").  Every rank
// makes one further pass over its local data, harvesting the points that
// fall in alive intervals and routing them to the interval's owner in a
// single all-to-all exchange; owners sort and evaluate gini at every
// distinct point, and one min-reduction yields the global best splitter on
// every rank — "no further communication is required after assigning the
// intervals to processors".

#include <cstdint>
#include <span>
#include <vector>

#include "clouds/cost_hooks.hpp"
#include "clouds/splitters.hpp"
#include "mp/comm.hpp"

namespace pdc::pclouds {

struct AliveOutcome {
  clouds::SplitCandidate best;       ///< includes the boundary best
  double survival = 0.0;             ///< alive points / node size (global)
  std::uint64_t points_shipped = 0;  ///< this rank's harvested points
};

AliveOutcome evaluate_alive_parallel(
    mp::Comm& comm, std::span<const clouds::AliveInterval> alive,
    const clouds::SplitCandidate& boundary_best,
    const data::ClassCounts& node_counts, const clouds::RecordScan& scan,
    const clouds::CostHooks& hooks);

}  // namespace pdc::pclouds
