// Layer probes: benchmark-owned calls into one layer at a time, timed on
// the host (collectives, the split kernel, a disk scan, predict_block).

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "clouds/record_source.hpp"
#include "clouds/splitters.hpp"
#include "io/local_disk.hpp"
#include "mp/runtime.hpp"

namespace hostbench {

void probe_collectives(int p, std::size_t payload_bytes,
                       const pdc::mp::Machine& machine, Metrics& out) {
  constexpr int kIters = 200;
  constexpr int kSpawns = 20;
  pdc::mp::Runtime rt(p, machine);
  const auto ranks = static_cast<std::size_t>(p);
  std::vector<std::vector<double>> barrier(ranks), reduce(ranks), a2a(ranks);
  const std::size_t n =
      std::max<std::size_t>(1, payload_bytes / sizeof(double));
  rt.run([&](pdc::mp::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const std::vector<double> mine(n, 1.0);
    for (int i = 0; i < kIters; ++i) {
      const double t0 = wall_now();
      comm.barrier();
      barrier[r].push_back((wall_now() - t0) * 1e6);
    }
    for (int i = 0; i < kIters; ++i) {
      const double t0 = wall_now();
      const auto sum = comm.all_reduce_vec<double>(mine);
      reduce[r].push_back((wall_now() - t0) * 1e6);
      if (sum.size() != n) throw std::runtime_error("all_reduce_vec size");
    }
    for (int i = 0; i < kIters; ++i) {
      const double t0 = wall_now();
      const auto all = comm.all_to_all_broadcast<double>(mine);
      a2a[r].push_back((wall_now() - t0) * 1e6);
      if (all.size() != ranks) throw std::runtime_error("all_to_all size");
    }
  });
  auto pooled = [](const std::vector<std::vector<double>>& per_rank) {
    std::vector<double> all;
    for (const auto& v : per_rank) all.insert(all.end(), v.begin(), v.end());
    return all;
  };
  const auto b = pooled(barrier), rd = pooled(reduce), aa = pooled(a2a);
  out.set("mp.barrier_us.p50", quantile(b, 0.50), "us");
  out.set("mp.barrier_us.p99", quantile(b, 0.99), "us");
  out.set("mp.all_reduce_vec_us.p50", quantile(rd, 0.50), "us");
  out.set("mp.all_reduce_vec_us.p99", quantile(rd, 0.99), "us");
  out.set("mp.all_to_all_broadcast_us.p50", quantile(aa, 0.50), "us");
  out.set("mp.all_to_all_broadcast_us.p99", quantile(aa, 0.99), "us");
  std::vector<double> spawn;
  for (int i = 0; i < kSpawns; ++i) {
    const double t0 = wall_now();
    rt.run([](pdc::mp::Comm&) {});
    spawn.push_back((wall_now() - t0) * 1e3);
  }
  out.set("mp.spawn_ms", median(spawn), "ms");
}

double probe_split_kernel(std::span<const pdc::data::Record> data,
                          std::span<const pdc::data::Record> sample, int q,
                          SpanLog* log) {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(log, "clouds.root_split", "clouds", -1);
    auto stats = pdc::clouds::NodeStats::with_boundaries(sample, q);
    pdc::clouds::MemorySource source(data);
    const pdc::clouds::CostHooks hooks{};
    pdc::clouds::collect_stats(source, stats, hooks);
    const auto split = pdc::clouds::sse_split(stats, source, hooks);
    const double wall = span.close();
    if (!split.valid) throw std::runtime_error("root split is not valid");
    rates.push_back(static_cast<double>(data.size()) / wall);
  }
  return median(rates);
}

double probe_scan(const std::string& dir, const std::string& file,
                  const pdc::io::PipelineConfig& pipeline,
                  const pdc::mp::Machine& machine, SpanLog* log) {
  const pdc::mp::CostModel cost(machine);
  pdc::mp::Clock clock;
  pdc::io::LocalDisk disk(dir, &cost, &clock);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(log, "io.BlockReader_scan", "io", -1);
    pdc::io::BlockReader<pdc::data::Record> reader(disk, file, 8192, pipeline);
    std::vector<pdc::data::Record> block;
    std::size_t bytes = 0;
    while (reader.next_block(block)) bytes += block.size() * sizeof(block[0]);
    rates.push_back(static_cast<double>(bytes) / 1e6 / span.close());
  }
  return median(rates);
}

double probe_predict_block(const pdc::serve::CompiledTree& model,
                           const ServePool& pool, double seconds,
                           SpanLog* log) {
  ScopedSpan span(log, "serve.predict_block", "serve", -1);
  std::vector<std::int8_t> labels(kBatch);
  std::uint64_t records = 0;
  const double start = wall_now();
  do {
    for (const auto& block : pool.blocks) {
      model.predict_block(block, labels);
      records += block.size();
    }
  } while (wall_now() - start < seconds);
  return static_cast<double>(records) / span.close();
}

}  // namespace hostbench
