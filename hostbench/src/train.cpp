// The train-* workloads: out-of-core pCLOUDS trainings on the paper's
// configuration, timed on the host.  See README.md for the workload
// choices.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "clouds/builder.hpp"
#include "data/dataset.hpp"
#include "harness.hpp"
#include "io/local_disk.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "pclouds/pclouds.hpp"

namespace hostbench {
namespace {

using pdc::data::Record;

constexpr std::size_t kPoolBatches = 32;
constexpr const char* kTrainFile = "train.dat";

/// Host measurements of one rank during one training.
/// Each span of the closure check has its own start and end reads, so
/// work between spans shows as uncovered time.
struct RankHost {
  double enter_s = 0.0;        ///< rank body entered
  double setup_end_s = 0.0;    ///< disk opened
  double train_begin_s = 0.0;  ///< pclouds_train called
  double train_end_s = 0.0;    ///< pclouds_train returned
  double exit_s = 0.0;         ///< rank body about to return
  double cpu_s = 0.0;          ///< thread CPU inside pclouds_train
  Usage usage;                 ///< RUSAGE_THREAD delta inside pclouds_train
  pdc::io::IoStats io;
  pdc::pclouds::PcloudsDiag diag;
};

struct Training {
  double run_begin_s = 0.0;
  double run_end_s = 0.0;
  double wall_s = 0.0;
  double modeled_s = 0.0;
  std::uint64_t fp = 0;
  pdc::mp::SpmdReport report;
  std::optional<pdc::clouds::DecisionTree> tree;  ///< rank 0's copy
  std::vector<RankHost> ranks;
};

/// One training as a user runs it: Runtime::run over every rank, each rank
/// opening its disk and calling pclouds_train on its slice.
Training train_once(pdc::mp::Runtime& rt,
                    const pdc::pclouds::PcloudsConfig& cfg,
                    const pdc::io::ScratchArena& disks,
                    const std::vector<std::vector<Record>>& samples,
                    pdc::obs::Tracer* tracer, SpanLog* log) {
  Training t;
  t.ranks.resize(static_cast<std::size_t>(rt.nprocs()));
  t.run_begin_s = wall_now();
  t.report = rt.run(
      [&](pdc::mp::Comm& comm) {
        const int r = comm.rank();
        RankHost& h = t.ranks[static_cast<std::size_t>(r)];
        h.enter_s = wall_now();
        pdc::io::LocalDisk disk(disks.rank_dir(r), &comm.cost(), &comm.clock(),
                                comm.tracer());
        pdc::pclouds::PcloudsDiag diag;
        h.setup_end_s = wall_now();
        const Usage u0 = usage_now(RUSAGE_THREAD);
        const double cpu0 = thread_cpu_now();
        h.train_begin_s = wall_now();
        auto tree = pdc::pclouds::pclouds_train(
            comm, cfg, disk, kTrainFile, samples[static_cast<std::size_t>(r)],
            &diag);
        h.train_end_s = wall_now();
        h.cpu_s = thread_cpu_now() - cpu0;
        h.usage = usage_now(RUSAGE_THREAD) - u0;
        h.io = disk.stats();
        h.diag = diag;
        if (r == 0) t.tree = std::move(tree);
        h.exit_s = wall_now();
      },
      tracer);
  t.run_end_s = wall_now();
  t.wall_s = t.run_end_s - t.run_begin_s;
  t.modeled_s = t.report.parallel_time();
  t.fp = fingerprint(*t.tree);
  if (log) {
    const double o = log->origin();
    log->add({"mp.Runtime::run", "mp", -1, t.run_begin_s - o, t.wall_s, 0.0});
    for (int r = 0; r < rt.nprocs(); ++r) {
      const RankHost& h = t.ranks[static_cast<std::size_t>(r)];
      log->add({"setup", "bench", r, h.enter_s - o,
                h.setup_end_s - h.enter_s, 0.0});
      log->add({"pclouds_train", "pclouds", r, h.train_begin_s - o,
                h.train_end_s - h.train_begin_s, h.cpu_s});
      log->add({"join-wait", "mp", r, h.exit_s - o, t.run_end_s - h.exit_s,
                0.0});
    }
  }
  return t;
}

/// Checks a training against the reference fingerprint and the first
/// timed training's modeled clock.
void check_training(const Training& t, std::uint64_t ref_fp,
                    std::optional<double>& modeled0, Ledger& ledger) {
  if (!modeled0) modeled0 = t.modeled_s;
  ledger.check(t.fp == ref_fp && t.modeled_s == *modeled0,
               "training differs from the reference tree or modeled clock");
}

struct Setup {
  std::vector<std::vector<Record>> samples;
  double wall_s = 0.0;
  double materialize_s = 0.0;  ///< slowest rank's materialize_local_slice
};

/// The paper's starting condition: every rank's random slice on its local
/// disk, plus its part of the pre-drawn sample set S.
Setup set_up(pdc::mp::Runtime& rt, const pdc::data::AgrawalGenerator& gen,
             const pdc::data::DatasetPartition& part,
             const pdc::data::Sampler& sampler,
             const pdc::io::ScratchArena& disks,
             SpanLog& log) {
  Setup s;
  s.samples.resize(static_cast<std::size_t>(rt.nprocs()));
  std::vector<double> mat(static_cast<std::size_t>(rt.nprocs()), 0.0);
  ScopedSpan span(&log, "setup", "bench", -1);
  rt.run([&](pdc::mp::Comm& comm) {
    const int r = comm.rank();
    pdc::io::LocalDisk disk(disks.rank_dir(r), &comm.cost(), &comm.clock());
    ScopedSpan m(&log, "data.materialize_local_slice", "data", r);
    pdc::data::materialize_local_slice(gen, part, r, disk, kTrainFile, 8192);
    mat[static_cast<std::size_t>(r)] = m.close();
    s.samples[static_cast<std::size_t>(r)] =
        pdc::data::draw_local_sample(gen, part, sampler, r);
  });
  s.wall_s = span.close();
  s.materialize_s = *std::max_element(mat.begin(), mat.end());
  return s;
}

/// Per-layer metrics of one traced training (program counters, the
/// benchmark's rank spans, and the closure checks).
void training_layer_metrics(const Training& t, const pdc::obs::Tracer& tracer,
                            Ledger& ledger, Metrics& out) {
  const auto merged = tracer.merged_metrics();
  auto counter = [&](const char* name) {
    const auto it = merged.counters().find(name);
    return it == merged.counters().end() ? 0.0
                                         : static_cast<double>(it->second.value);
  };
  auto hist_sum = [&](const char* name) {
    const auto it = merged.histograms().find(name);
    return it == merged.histograms().end() ? 0.0 : it->second.sum;
  };
  const auto gauge = merged.gauges().find("mem.highwater_bytes");

  pdc::io::IoStats io;
  double cpu = 0.0, busy_wall = 0.0, alive = 0.0, redistributed = 0.0;
  Usage sw;
  double cover_min = 1.0;
  for (const RankHost& h : t.ranks) {
    io += h.io;
    cpu += h.cpu_s;
    busy_wall += h.train_end_s - h.train_begin_s;
    sw.vol_switches += h.usage.vol_switches;
    sw.invol_switches += h.usage.invol_switches;
    alive += static_cast<double>(h.diag.alive_points_shipped);
    redistributed += static_cast<double>(h.diag.dc.records_redistributed);
    // setup + pclouds_train + join-wait, each timed on its own, as a share
    // of the run's wall: thread spawn and any untimed work in the rank
    // body between the spans stay uncovered.
    const double covered = (h.setup_end_s - h.enter_s) +
                           (h.train_end_s - h.train_begin_s) +
                           (t.run_end_s - h.exit_s);
    cover_min = std::min(cover_min, covered / t.wall_s);
  }
  double max_bucket_sum = 0.0;
  for (const auto& c : t.report.clocks) {
    max_bucket_sum =
        std::max(max_bucket_sum, c.compute_s + c.comm_s + c.io_s + c.idle_s);
  }
  const double residual = std::abs(max_bucket_sum - t.report.parallel_time());
  ledger.check(cover_min >= 0.9 && residual <= 1e-9 * std::max(1.0, t.modeled_s),
               "traced-run closure check failed");

  out.set("io.bytes_read", static_cast<double>(io.bytes_read), "bytes");
  out.set("io.bytes_written", static_cast<double>(io.bytes_written), "bytes");
  out.set("io.ops", static_cast<double>(io.total_ops()), "count");
  out.set("io.modeled_s", t.report.max_io(), "s");
  out.set("io.hidden_s", t.report.total_io_hidden(), "s");
  out.set("mp.collectives", counter("mp.primitives"), "count");
  out.set("mp.bytes", hist_sum("mp.primitive_bytes"), "bytes");
  out.set("mp.modeled_comm_s", t.report.max_comm(), "s");
  out.set("mp.rank_cpu_share", busy_wall > 0 ? cpu / busy_wall : 0.0, "ratio");
  out.set("mp.vol_ctx_switches", static_cast<double>(sw.vol_switches), "count");
  out.set("mp.invol_ctx_switches", static_cast<double>(sw.invol_switches),
          "count");
  out.set("clouds.gini_evals", counter("clouds.gini_evals"), "count");
  out.set("clouds.modeled_compute_s", t.report.max_compute(), "s");
  out.set("pclouds.combiner_bytes", hist_sum("dc.combiner_message_bytes"),
          "bytes");
  out.set("pclouds.survival_ratio", t.ranks[0].diag.mean_survival, "ratio");
  out.set("pclouds.alive_points_shipped", alive, "count");
  out.set("dc.records_redistributed", redistributed, "count");
  out.set("dc.balance", t.report.balance(), "ratio");
  out.set("dc.modeled_idle_s", t.report.max_idle(), "s");
  out.set("obs.mem_highwater_bytes",
          gauge == merged.gauges().end() ? 0.0 : gauge->second.value, "bytes");
  out.set("closure.span_cover_min", cover_min, "ratio");
  out.set("closure.modeled_residual_s", residual, "s");
}

/// One training problem, set up: the population laid out on `p` ranks'
/// disks, the sample S, the runtime and the paper configuration.
struct Problem {
  Problem(int p, std::uint64_t n, bool pipelined, std::uint64_t seed,
          const std::string& tag)
      : records(n),
        disks("hostbench_" + tag, p),
        gen({.function = kFunction, .seed = kPopulationSeed}),
        part(n, p, derive_seed(seed, 2)),
        sampler(0.05, derive_seed(seed, 3)),
        rt(p, pdc::bench::scaled_machine()),
        cfg(pdc::bench::paper_config(n)) {
    cfg.clouds.pipeline.enabled = pipelined;
  }

  void set_up(SpanLog& log) {
    in = hostbench::set_up(rt, gen, part, sampler, disks, log);
  }
  Training train(pdc::obs::Tracer* tracer, SpanLog* log) {
    return train_once(rt, cfg, disks, in.samples, tracer, log);
  }

  std::uint64_t records;
  pdc::io::ScratchArena disks;
  pdc::data::AgrawalGenerator gen;
  pdc::data::DatasetPartition part;
  pdc::data::Sampler sampler;
  pdc::mp::Runtime rt;
  pdc::pclouds::PcloudsConfig cfg;
  Setup in;
};

/// The same problem on 16 ranks, 4 per core on a 4-core host, on the
/// workload's I/O path.  There the wall clock measures the kernel
/// scheduler and the hypervisor's vCPU wake-ups as much as pclouds (it
/// swung from 0.7 s to 4.5 s within an hour on one host), so p = 16 is
/// reported per layer under "spmd16." and never gated.  pCLOUDS is
/// p-invariant: the tree must equal the p = 1 reference.
void spmd_probe(const Options& opt, std::uint64_t records, bool pipelined,
                std::uint64_t ref_fp, Ledger& ledger, SpanLog& log,
                Metrics& out) {
  constexpr int kRanks = 16;
  Problem pb(kRanks, records, pipelined, opt.seed, "spmd16");
  pb.set_up(log);
  const Usage u0 = usage_now(RUSAGE_SELF);
  const Training plain = pb.train(nullptr, nullptr);
  const double cpu = (usage_now(RUSAGE_SELF) - u0).cpu_s;
  pdc::obs::Tracer tracer(kRanks);
  const Training traced = pb.train(&tracer, &log);
  ledger.check(plain.fp == ref_fp && traced.fp == ref_fp &&
                   plain.modeled_s == traced.modeled_s,
               "p = 16 tree differs from the p = 1 reference");
  Metrics layer;
  training_layer_metrics(traced, tracer, ledger, layer);
  const double prims = layer.get("mp.collectives");
  probe_collectives(kRanks,
                    static_cast<std::size_t>(
                        prims > 0 ? layer.get("mp.bytes") / prims : 8.0),
                    pb.rt.machine(), layer);
  out.set("spmd16.train_wall_s", plain.wall_s, "s");
  out.set("spmd16.cpu_s", cpu, "s");
  out.set("spmd16.modeled_s", plain.modeled_s, "s");
  for (const auto& m : layer.items()) {
    for (const char* prefix : {"mp.", "pclouds.", "dc.", "obs.", "closure."}) {
      if (m.name.starts_with(prefix)) out.set("spmd16." + m.name, m.value, m.unit);
    }
  }
}

/// Compiles a timed training's tree and checks its labels on every pool
/// block against the reference computed in setup.
void check_served_labels(const pdc::clouds::DecisionTree& tree,
                         const ServePool& pool, Ledger& ledger) {
  const auto model = pdc::serve::CompiledTree::compile(tree);
  std::vector<std::int8_t> labels(kBatch);
  for (std::size_t b = 0; b < pool.blocks.size(); ++b) {
    model.predict_block(pool.blocks[b], labels);
    ledger.check(labels == pool.reference[b],
                 "trained model's labels differ from the setup reference");
  }
}

}  // namespace

Outcome run_train(const Spec& spec, const Options& opt, SpanLog& log) {
  Outcome res;
  Ledger& ledger = res.ledger;
  Metrics& m = res.metrics;
  const auto records = std::max<std::uint64_t>(
      4000, static_cast<std::uint64_t>(static_cast<double>(spec.records) *
                                       opt.scale));
  Problem pb(1, records, spec.pipelined, opt.seed, spec.name);

  // Set-up, repeated so setup_s is a median.
  std::vector<double> setup_walls, materialize;
  for (int rep = 0; rep < (opt.trace ? 1 : 5); ++rep) {
    pb.set_up(log);
    setup_walls.push_back(pb.in.wall_s);
    materialize.push_back(pb.in.materialize_s);
  }
  std::uint64_t digest = fnv1a(nullptr, 0);
  for (const auto& s : pb.in.samples) {
    const std::uint64_t n = s.size();
    digest = fnv1a(&n, sizeof n, digest);
    digest = fnv1a(s.data(), s.size() * sizeof(Record), digest);
  }
  res.info.set("input_digest", static_cast<double>(digest >> 12), "hash");

  // Untimed reference training, which also warms caches.  It runs the
  // other I/O path, so every timed training also checks that the
  // synchronous and pipelined paths grow the byte-identical tree.
  auto ref_cfg = pb.cfg;
  ref_cfg.clouds.pipeline.enabled = !spec.pipelined;
  const Training ref =
      train_once(pb.rt, ref_cfg, pb.disks, pb.in.samples, nullptr, &log);
  ledger.check(ref.tree->live_count() > 1, "reference training grew no tree");
  const std::uint64_t ref_fp = ref.fp ^ (opt.corrupt == "fingerprint" ? 1 : 0);

  res.info.set("tree_nodes", static_cast<double>(ref.tree->live_count()),
               "count");
  res.info.set("tree_fingerprint", static_cast<double>(ref.fp >> 12), "hash");
  // Held-out test set with predict_block reference labels, checked against
  // the interpreter; the last timed training's model must reproduce them.
  const auto model = pdc::serve::CompiledTree::compile(*ref.tree);
  const pdc::data::AgrawalGenerator test_gen(
      {.function = kFunction, .seed = derive_seed(opt.seed, 4)});
  const ServePool pool = make_pool(model, *ref.tree, test_gen, kPoolBatches,
                                   opt.corrupt == "label", ledger);
  double correct_labels = 0.0;
  for (const auto& block : pool.blocks) {
    correct_labels += model.accuracy(block) * static_cast<double>(block.size());
  }
  const double accuracy = correct_labels / static_cast<double>(pool.records());
  res.info.set("test_accuracy", accuracy, "ratio");
  ledger.check(accuracy >= 0.95, "test accuracy below 0.95");

  std::optional<double> modeled0;
  if (!opt.trace) {
    reset_peak_rss();
    const double start = wall_now();
    std::vector<double> walls;
    double cpu = 0.0;
    std::optional<Training> last;
    do {
      const Usage u0 = usage_now(RUSAGE_SELF);
      last = pb.train(nullptr, nullptr);
      cpu += (usage_now(RUSAGE_SELF) - u0).cpu_s;
      check_training(*last, ref_fp, modeled0, ledger);
      walls.push_back(last->wall_s);
    } while (wall_now() - start < opt.seconds || walls.size() < 3);
    m.set("setup_s", median(setup_walls), "s");
    m.set("train_wall_s", median(walls), "s");
    m.set("modeled_s", *modeled0, "s");
    m.set("cpu_s", cpu / static_cast<double>(walls.size()), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    check_served_labels(*last->tree, pool, ledger);
    res.info.set("train_wall_s.samples", static_cast<double>(walls.size()),
                 "count");
    res.info.set("train_wall_s.min", quantile(walls, 0.0), "s");
    res.info.set("train_wall_s.max", quantile(walls, 1.0), "s");
    return res;
  }

  // Traced run: untraced and traced trainings alternate; the per-layer
  // numbers come from the last traced one.
  std::vector<double> plain, traced;
  std::unique_ptr<pdc::obs::Tracer> tracer;
  std::optional<Training> last;
  const double start = wall_now();
  do {
    const Training u = pb.train(nullptr, nullptr);
    check_training(u, ref_fp, modeled0, ledger);
    plain.push_back(u.wall_s);
    tracer = std::make_unique<pdc::obs::Tracer>(1);
    last = pb.train(tracer.get(), &log);
    check_training(*last, ref_fp, modeled0, ledger);
    traced.push_back(last->wall_s);
  } while (wall_now() - start < opt.seconds);
  check_served_labels(*last->tree, pool, ledger);

  m.set("data.materialize_s", median(materialize), "s");
  training_layer_metrics(*last, *tracer, ledger, m);
  m.set("obs.tracing_overhead", median(traced) / median(plain) - 1.0, "ratio");
  m.set("io.scan_mb_per_s",
        probe_scan(pb.disks.rank_dir(0).string(), kTrainFile,
                   pb.cfg.clouds.pipeline, pb.rt.machine(), &log),
        "MB/s");
  // The collective probe runs at this workload's p with its mean
  // primitive payload.
  const double prims = m.get("mp.collectives");
  probe_collectives(
      1,
      static_cast<std::size_t>(prims > 0 ? m.get("mp.bytes") / prims : 8.0),
      pb.rt.machine(), m);

  std::vector<Record> sample;
  for (const auto& s : pb.in.samples) {
    sample.insert(sample.end(), s.begin(), s.end());
  }
  const auto data = pb.gen.make_range(0, records);
  m.set("clouds.kernel_records_per_s",
        probe_split_kernel(data, sample, pb.cfg.clouds.q_root, &log), "1/s");

  m.set("serve.predict_block_records_per_s",
        probe_predict_block(model, pool, 0.5, &log), "1/s");
  ScopedSpan compile(&log, "serve.CompiledTree::compile", "serve", -1);
  const auto recompiled = pdc::serve::CompiledTree::compile(*ref.tree);
  m.set("serve.compile_s", compile.close(), "s");
  ledger.check(std::ranges::equal(recompiled.nodes(), model.nodes()),
               "compiling the same tree twice gave different models");
  tracer->write_chrome_json(opt.out_dir + "/program-trace-" + spec.name +
                            ".json");
  spmd_probe(opt, records, spec.pipelined, ref.fp, ledger, log, m);
  serve_probe(opt, opt.seconds / 2, ledger, log, m);
  return res;
}

}  // namespace hostbench
