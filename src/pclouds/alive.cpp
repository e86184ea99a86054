#include "pclouds/alive.hpp"

#include <algorithm>
#include <cmath>

#include "dc/lpt.hpp"
#include "obs/mem_gauge.hpp"
#include "pclouds/combiners.hpp"

namespace pdc::pclouds {

namespace {

/// A harvested point on the wire: which alive interval it belongs to, its
/// attribute value, and its class.
struct WirePoint {
  float value;
  std::int32_t interval;  ///< index into the alive list
  std::int8_t label;
};
static_assert(std::is_trivially_copyable_v<WirePoint>);

}  // namespace

AliveOutcome evaluate_alive_parallel(
    mp::Comm& comm, std::span<const clouds::AliveInterval> alive,
    const clouds::SplitCandidate& boundary_best,
    const data::ClassCounts& node_counts, const clouds::RecordScan& scan,
    const clouds::CostHooks& hooks) {
  auto sp = hooks.span("alive-evaluation", "pclouds", alive.size());
  AliveOutcome out;
  out.best = boundary_best;
  out.survival = clouds::survival_ratio(alive, node_counts);
  if (alive.empty()) return out;

  // Single assignment: owner per interval from the sorting cost, computed
  // identically on every rank (interval sizes are global statistics).
  std::vector<double> costs(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const double n = static_cast<double>(data::total(alive[i].inside));
    costs[i] = n <= 1.0 ? 1.0 : n * std::log2(n);
  }
  const auto assign = dc::lpt_assign(costs, comm.size());

  // Harvest pass: points of intervals this rank owns go straight into
  // their bucket (sized at the interval's global count); the rest are
  // staged for their owner.  The self slot of the exchange stays empty,
  // which the modeled cost ignores anyway.
  const int me = comm.rank();
  std::vector<std::vector<clouds::AlivePoint>> buckets(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (assign.owner[i] == me) {
      buckets[i].reserve(
          static_cast<std::size_t>(data::total(alive[i].inside)));
    }
  }
  obs::MemCharge harvest_mem(hooks.mem, 0);
  std::vector<std::vector<WirePoint>> outgoing(
      static_cast<std::size_t>(comm.size()));
  const clouds::AliveIndex index(alive);
  scan([&](const data::Record& r) {
    index.for_each(r, [&](std::size_t i, float v) {
      const int owner = assign.owner[i];
      if (owner == me) {
        // pdc: incore(alive point harvest: survival-bounded, one bucket per owned interval, freed after evaluation)
        buckets[i].push_back({v, r.label});
        harvest_mem.add(sizeof(clouds::AlivePoint));
      } else {
        // pdc: incore(alive point routing: survival-bounded, only in-interval points are staged for the exchange)
        outgoing[static_cast<std::size_t>(owner)].push_back(
            {v, static_cast<std::int32_t>(i), r.label});
        harvest_mem.add(sizeof(WirePoint));
      }
      ++out.points_shipped;
    });
    hooks.charge_scan(alive.size());
  });

  {
    const auto incoming = comm.all_to_all<WirePoint>(outgoing);
    outgoing = {};
    for (const auto& from_rank : incoming) {
      for (const auto& wp : from_rank) {
        buckets[static_cast<std::size_t>(wp.interval)].push_back(
            {wp.value, wp.label});
      }
    }
  }
  clouds::SplitCandidate local_best;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (assign.owner[i] != me) continue;
    local_best.consider(clouds::evaluate_alive_interval(
        alive[i], std::move(buckets[i]), hooks));
  }

  auto global_best = reduce_candidates(comm, local_best);
  if (clouds::candidate_less(global_best, out.best)) out.best = global_best;
  return out;
}

}  // namespace pdc::pclouds
