#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "data/agrawal.hpp"
#include "obs/json.hpp"
#include "obs/wall_clock.hpp"

namespace pdc::serve {

namespace {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

ServeReport run_loadgen(Server& server, const CompiledTree& model,
                        const LoadGenConfig& cfg) {
  data::AgrawalGenerator gen({cfg.function, cfg.seed, 0.0, 0.0});

  ServeReport rep;
  rep.config = cfg;
  rep.replicas = server.replicas();
  rep.model_nodes = model.node_count();
  rep.model_depth = model.depth();
  rep.model_leaves = model.leaf_count();

  std::vector<double> latencies;
  // pdc: incore(one latency sample per request; bounded by cfg.requests, not by the record stream)
  latencies.reserve(cfg.requests);

  std::deque<std::future<BatchResult>> outstanding;
  std::uint64_t next_record = 0;
  std::uint64_t completed = 0;
  const std::size_t window = std::max<std::size_t>(1, cfg.window);

  const auto drain_one = [&] {
    BatchResult res = outstanding.front().get();
    outstanding.pop_front();
    latencies.push_back(res.latency_us);
    ++completed;
    if (cfg.swap_every != 0 && completed % cfg.swap_every == 0) {
      server.hot_swap(model);  // republish: same behaviour, new version
    }
  };

  // Request payloads are pre-generated into a pool before the clock
  // starts: a load generator that synthesizes records on the submit path
  // becomes the bottleneck long before a multi-replica server does, and
  // the throughput figure would measure the generator, not the server.
  constexpr std::size_t kPoolSize = 32;
  std::vector<RecordBlock> pool;
  // pdc: incore(bounded request-payload pool: at most 32 batches, reused cyclically)
  pool.reserve(std::min<std::size_t>(kPoolSize, cfg.requests));
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    const auto records =
        gen.make_range(next_record, next_record + cfg.batch_records);
    next_record += cfg.batch_records;
    pool.push_back(RecordBlock::from_records(records));
  }

  const double begin_s = obs::wall_seconds();
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    outstanding.push_back(server.submit(pool[i % pool.size()]));
    while (outstanding.size() >= window) drain_one();
  }
  while (!outstanding.empty()) drain_one();
  rep.wall_s = obs::wall_seconds() - begin_s;

  const ServerStats stats = server.stats();
  rep.total_requests = stats.requests;
  rep.total_records = stats.records;
  rep.records_per_s =
      rep.wall_s > 0.0 ? static_cast<double>(rep.total_records) / rep.wall_s
                       : 0.0;
  rep.swaps = stats.swaps;
  rep.queue_highwater = stats.queue_highwater;
  rep.latency_us = stats.latency_us;
  rep.latency_log2_us = stats.latency_log2_us;
  rep.replica_stats = stats.replicas;

  std::sort(latencies.begin(), latencies.end());
  rep.p50_us = percentile(latencies, 0.50);
  rep.p90_us = percentile(latencies, 0.90);
  rep.p99_us = percentile(latencies, 0.99);
  return rep;
}

std::string ServeReport::to_json() const {
  using obs::Json;
  Json jbuckets = Json::array();
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    // The final bucket is unbounded; -1 marks "no upper edge".
    const double le =
        b + 1 < kLatencyBuckets ? std::ldexp(1.0, static_cast<int>(b)) : -1.0;
    jbuckets.push_back(
        Json::object({{"le_us", le}, {"count", latency_log2_us[b]}}));
  }
  Json jreps = Json::array();
  for (const ReplicaStats& rs : replica_stats) {
    jreps.push_back(
        Json::object({{"replica", rs.replica},
                      {"batches", rs.batches},
                      {"records", rs.records},
                      {"min_version", rs.min_version},
                      {"max_version", rs.max_version},
                      {"swaps_observed", rs.swaps_observed},
                      {"version_monotonic", rs.version_monotonic}}));
  }
  return Json::object(
             {{"schema", "pdc.serve_report.v1"},
              {"config", Json::object({{"replicas", replicas},
                                       {"batch_records", config.batch_records},
                                       {"requests", config.requests},
                                       {"window", config.window},
                                       {"seed", config.seed},
                                       {"function", config.function},
                                       {"swap_every", config.swap_every}})},
              {"model", Json::object({{"nodes", model_nodes},
                                      {"depth", model_depth},
                                      {"leaves", model_leaves}})},
              {"totals", Json::object({{"requests", total_requests},
                                       {"records", total_records},
                                       {"wall_s", wall_s},
                                       {"records_per_s", records_per_s},
                                       {"swaps", swaps},
                                       {"queue_highwater", queue_highwater}})},
              {"latency_us",
               Json::object(
                   {{"count", latency_us.count},
                    {"mean_us", latency_us.mean()},
                    {"min_us", latency_us.count ? latency_us.min : 0.0},
                    {"max_us", latency_us.count ? latency_us.max : 0.0},
                    {"p50_us", p50_us},
                    {"p90_us", p90_us},
                    {"p99_us", p99_us},
                    {"buckets", std::move(jbuckets)}})},
              {"replicas", std::move(jreps)}})
      .dump();
}

}  // namespace pdc::serve
