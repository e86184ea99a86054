// The serving side: the request pool with its reference labels, and the
// serve3 probe, a closed client loop over a serve::Server with 3 replicas
// and a deep compiled tree.

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "clouds/builder.hpp"
#include "data/partition.hpp"
#include "harness.hpp"
#include "mp/clock.hpp"
#include "obs/span_names.hpp"

namespace hostbench {

using pdc::serve::CompiledTree;
using pdc::serve::RecordBlock;

namespace {

/// Replicas of the serve3 probe: with the one client thread they fill a
/// 4-core host.
constexpr int kReplicas = 3;
constexpr std::uint64_t kProbeRecords = 100'000;

}  // namespace

ServePool make_pool(const CompiledTree& model,
                    const pdc::clouds::DecisionTree& tree,
                    const pdc::data::AgrawalGenerator& gen, std::size_t batches,
                    bool corrupt_label, Ledger& ledger) {
  ServePool pool;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::uint64_t lo = b * kBatch;
    const auto recs = gen.make_range(lo, lo + kBatch);
    pool.blocks.push_back(RecordBlock::from_records(recs));
    std::vector<std::int8_t> labels(kBatch);
    model.predict_block(pool.blocks.back(), labels);
    bool same = true;
    for (std::size_t i = 0; i < kBatch; ++i) {
      same = same && labels[i] == tree.classify(recs[i]);
    }
    ledger.check(same, "predict_block disagrees with the interpreted tree");
    pool.reference.push_back(std::move(labels));
  }
  if (corrupt_label) pool.reference[0][0] ^= 1;
  return pool;
}

namespace {

/// One client thread over a Server with `replicas` replicas, running
/// 2 x replicas closed-loop callers: each has one batch in flight and
/// sends the next when its reply arrives.  Serves `warmup_s` untimed, then
/// `seconds` timed; checks every response against the pool's reference.
LoopResult closed_loop(const CompiledTree& model, const ServePool& pool,
                       int replicas, double warmup_s, double seconds,
                       pdc::obs::Tracer* tracer, Ledger& ledger) {
  pdc::serve::ServerConfig cfg;
  cfg.replicas = replicas;
  cfg.tracer = tracer;
  pdc::serve::Server server(model, cfg);
  const std::size_t window = 2 * static_cast<std::size_t>(replicas);

  struct InFlight {
    std::future<pdc::serve::BatchResult> result;
    double submitted_s = 0.0;
    std::size_t block = 0;
    bool timed = false;
  };
  std::vector<InFlight> slots(window);
  std::size_t next = 0;
  double start = 0.0;
  LoopResult out;

  auto submit = [&](InFlight& slot, bool timed) {
    const std::size_t b = next++ % pool.blocks.size();
    RecordBlock copy = pool.blocks[b];
    const double t0 = wall_now();
    slot.result = server.submit(std::move(copy));
    if (timed) out.submit_us.push_back((wall_now() - t0) * 1e6);
    slot.submitted_s = t0;
    slot.block = b;
    slot.timed = timed;
  };
  auto reap = [&](InFlight& slot) {
    const pdc::serve::BatchResult r = slot.result.get();
    const double done = wall_now();
    ledger.check(r.labels == pool.reference[slot.block],
                 "served labels differ from the predict_block reference");
    if (slot.timed) {
      out.latency_us.push_back((done - slot.submitted_s) * 1e6);
      out.server_latency_us.push_back(r.latency_us);
      ++out.batches;
      out.records += r.labels.size();
    }
  };
  // Each slot is one closed-loop caller: it sends its next batch as soon
  // as its own reply arrives, whatever the other slots still wait for.
  auto drive = [&](double until, bool timed) {
    for (auto& slot : slots) submit(slot, timed);
    while (wall_now() < until) {
      bool reaped = false;
      for (auto& slot : slots) {
        if (slot.result.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          reap(slot);
          submit(slot, timed);
          reaped = true;
        }
      }
      if (!reaped) std::this_thread::yield();
    }
    for (auto& slot : slots) reap(slot);
  };

  // Warm-up: caches, replica threads and the allocator settle before the
  // timed part (a cold first pass reads several times slower).
  drive(wall_now() + warmup_s, false);
  const auto warm = server.stats();
  reset_peak_rss();
  const Usage u0 = usage_now(RUSAGE_SELF);
  const Usage client0 = usage_now(RUSAGE_THREAD);
  start = wall_now();
  drive(start + seconds, true);
  out.wall_s = wall_now() - start;
  // The server's CPU: the process minus this polling client thread.
  out.cpu_s = (usage_now(RUSAGE_SELF) - u0).cpu_s -
              (usage_now(RUSAGE_THREAD) - client0).cpu_s;
  out.peak_rss_mb = peak_rss_mb();
  server.shutdown();
  out.stats = server.stats();
  // Report the timed part only: subtract the warm-up per replica.
  for (std::size_t r = 0; r < out.stats.replicas.size(); ++r) {
    out.stats.replicas[r].batches -= warm.replicas[r].batches;
    out.stats.replicas[r].records -= warm.replicas[r].records;
  }
  for (const auto& rs : warm.replicas) out.warmup_batches.push_back(rs.batches);
  return out;
}

}  // namespace

void serve_probe(const Options& opt, double seconds, Ledger& ledger,
                 SpanLog& log, Metrics& out) {
  const auto records = std::max<std::uint64_t>(
      4000, static_cast<std::uint64_t>(static_cast<double>(kProbeRecords) *
                                       opt.scale));
  const std::size_t batches = opt.scale < 1.0 ? 8 : 64;

  // Label noise keeps purity from stopping growth early, so the in-core
  // tree is deep (40 levels, ~24k nodes) and the descent dominates the
  // serving cost.  S is drawn with the benchmark seed.
  pdc::clouds::CloudsConfig ccfg;
  ccfg.purity_stop = 0.999;
  ccfg.max_depth = 40;
  const pdc::data::AgrawalGenerator gen(
      {.function = kFunction, .seed = kPopulationSeed, .label_noise = 0.1});
  const auto train = gen.make_range(0, records);
  const pdc::data::Sampler sampler(0.05, derive_seed(opt.seed, 3));
  std::vector<pdc::data::Record> sample;
  for (std::uint64_t i = 0; i < records; ++i) {
    if (sampler.contains(i)) sample.push_back(train[i]);
  }
  pdc::mp::Clock clock;
  ScopedSpan build(&log, "clouds.CloudsBuilder::build", "clouds", -1);
  const auto tree =
      pdc::clouds::CloudsBuilder{ccfg, {&clock, pdc::bench::scaled_machine()}}.build(
          train, sample);
  out.set("serve3.build_s", build.close(), "s");
  out.set("serve3.modeled_s", clock.total(), "s");
  ScopedSpan compile(&log, "serve.CompiledTree::compile", "serve", -1);
  const auto model = CompiledTree::compile(tree);
  out.set("serve3.compile_s", compile.close(), "s");
  out.set("serve3.tree_nodes", static_cast<double>(model.node_count()), "count");
  const pdc::data::AgrawalGenerator fresh(
      {.function = kFunction, .seed = derive_seed(opt.seed, 5)});
  const ServePool pool =
      make_pool(model, tree, fresh, batches, opt.corrupt == "label", ledger);

  // An untraced and a traced loop of half the time each; their
  // throughput ratio is the tracing overhead.
  const LoopResult plain =
      closed_loop(model, pool, kReplicas, 0.5, seconds / 2, nullptr, ledger);
  pdc::obs::Tracer tracer(kReplicas);
  const LoopResult traced =
      closed_loop(model, pool, kReplicas, 0.5, seconds / 2, &tracer, ledger);
  const double plain_rps = static_cast<double>(plain.records) / plain.wall_s;
  const double traced_rps =
      static_cast<double>(traced.records) / traced.wall_s;
  out.set("serve3.records_per_s", plain_rps, "1/s");
  out.set("serve3.p50_us", quantile(plain.latency_us, 0.50), "us");
  out.set("serve3.p99_us", quantile(plain.latency_us, 0.99), "us");
  out.set("serve3.cpu_s", plain.cpu_s / static_cast<double>(plain.batches), "s");
  out.set("serve3.peak_rss_mb", plain.peak_rss_mb, "MB");
  out.set("serve3.tracing_overhead", plain_rps / traced_rps - 1.0, "ratio");
  out.set("serve3.predict_block_records_per_s",
          probe_predict_block(model, pool, 0.5, &log), "1/s");

  // serve.batch spans carry the measured service time on each replica's
  // track; the first warmup_batches[r] of them belong to the warm-up.
  std::vector<double> service_us;
  double busy_s = 0.0;
  for (int r = 0; r < kReplicas; ++r) {
    std::uint64_t skip = traced.warmup_batches[static_cast<std::size_t>(r)];
    for (const auto& ev : tracer.events(r)) {
      if (ev.name != pdc::obs::span_names::kServeBatch) continue;
      if (skip > 0) {
        --skip;
        continue;
      }
      service_us.push_back((ev.end_s - ev.begin_s) * 1e6);
      busy_s += ev.end_s - ev.begin_s;
    }
  }
  double max_batches = 0.0, sum_batches = 0.0;
  for (const auto& rs : traced.stats.replicas) {
    max_batches = std::max(max_batches, static_cast<double>(rs.batches));
    sum_batches += static_cast<double>(rs.batches);
  }
  const double mean_batches = sum_batches / kReplicas;
  out.set("serve3.service_us.p50", quantile(service_us, 0.50), "us");
  out.set("serve3.service_us.p99", quantile(service_us, 0.99), "us");
  out.set("serve3.latency_us.p50", quantile(traced.server_latency_us, 0.50),
          "us");
  out.set("serve3.latency_us.p99", quantile(traced.server_latency_us, 0.99),
          "us");
  out.set("serve3.submit_us.p99", quantile(traced.submit_us, 0.99), "us");
  out.set("serve3.replica_busy_frac", busy_s / (kReplicas * traced.wall_s),
          "ratio");
  out.set("serve3.replica_batch_skew",
          mean_batches > 0 ? max_batches / mean_batches : 0.0, "ratio");
  out.set("serve3.queue_highwater",
          static_cast<double>(traced.stats.queue_highwater), "count");
}

}  // namespace hostbench
