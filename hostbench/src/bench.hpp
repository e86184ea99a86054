#pragma once
// Declarations shared by the benchmark's workloads: options, the workload
// table, the correctness ledger, the closed serving loop and the layer
// probes.  See hostbench/README.md for what each workload measures.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clouds/tree.hpp"
#include "data/agrawal.hpp"
#include "data/record.hpp"
#include "host.hpp"
#include "io/pipeline.hpp"
#include "mp/machine.hpp"
#include "obs/trace.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/record_block.hpp"
#include "serve/server.hpp"

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every record count (smoke tests run at a small fraction).
  double scale = 1.0;
  /// Deliberate corruption for the benchmark's own self-test: "label"
  /// flips one served reference label, "fingerprint" flips the reference
  /// tree fingerprint.  Empty in real runs.
  std::string corrupt;
  /// Directory (inside the checkout) for scratch disks and the span log.
  std::string out_dir;
};

/// One workload: pCLOUDS on one rank.  README.md explains why p = 16 and
/// the serving loop are per-layer probes rather than workloads.
struct Spec {
  std::string name;
  std::uint64_t records = 0;  ///< training records
  bool pipelined = false;     ///< async read-ahead / write-behind
};

/// Operations attempted and failed; every check lands here.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(what);
    }
  }
};

struct Outcome {
  Ledger ledger;
  Metrics metrics;  ///< the metrics BENCHMARK.json names
  Metrics info;     ///< sample counts and context, printed but not gated
};

/// The paper's classification function and batch size for serving.
inline constexpr int kFunction = 2;
inline constexpr std::size_t kBatch = 2048;

/// Generator seed of the record population every workload trains on (the
/// figure benches' dataset).  Noise-free function-2 trees swing between
/// ~20 and ~570 nodes from one generator seed to the next, which would
/// swamp any regression, so the benchmark seed varies the inputs around
/// that population instead: the pre-drawn sample set S, the random
/// assignment of records to ranks, and the served request stream.
inline constexpr std::uint64_t kPopulationSeed = 404;

/// Stream seeds derived from the benchmark seed, one per input stream.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a 64 over raw bytes, chained through `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

/// FNV-1a over the tree's scrubbed serialization.
std::uint64_t fingerprint(const pdc::clouds::DecisionTree& tree);

// ------------------------------------------------------------ serving ---

/// Request blocks plus the labels CompiledTree::predict_block gave for
/// each of them in setup: every served response must equal its reference.
struct ServePool {
  std::vector<pdc::serve::RecordBlock> blocks;
  std::vector<std::vector<std::int8_t>> reference;
  std::uint64_t records() const { return blocks.size() * kBatch; }
};

/// `batches` blocks of kBatch records, the first records of `gen`.
/// Each block's predict_block labels are checked against the interpreted
/// tree (DecisionTree::classify) before they become the reference.
ServePool make_pool(const pdc::serve::CompiledTree& model,
                    const pdc::clouds::DecisionTree& tree,
                    const pdc::data::AgrawalGenerator& gen, std::size_t batches,
                    bool corrupt_label, Ledger& ledger);

struct LoopResult {
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;       ///< user+sys over the timed part, client excluded
  double peak_rss_mb = 0.0; ///< VmHWM over the timed part
  std::vector<double> latency_us;         ///< client: submit -> result
  std::vector<double> submit_us;          ///< time blocked in submit()
  std::vector<double> server_latency_us;  ///< BatchResult.latency_us
  pdc::serve::ServerStats stats;  ///< replica counts cover the timed part
  std::vector<std::uint64_t> warmup_batches;  ///< per replica
};

/// The serve3 probe (every traced run): a depth-40 tree trained
/// in-core on noisy records, compiled, and served by a 3-replica Server
/// to 6 closed-loop callers for `seconds`, half untraced and half traced.
/// Sets the serve3.* metrics.
void serve_probe(const Options& opt, double seconds, Ledger& ledger,
                 SpanLog& log, Metrics& out);

// ------------------------------------------------------------- probes ---

/// A benchmark-owned Runtime::run at `p` ranks timing barrier,
/// all_reduce_vec and all_to_all_broadcast with `payload_bytes` payloads
/// (200 calls per rank each), plus the spawn cost of 20 empty runs; sets
/// the mp.*_us.p50/.p99 and mp.spawn_ms metrics.
void probe_collectives(int p, std::size_t payload_bytes,
                       const pdc::mp::Machine& machine, Metrics& out);

/// Records per second of one root split derivation
/// (NodeStats::with_boundaries + collect_stats + sse_split), median of
/// three.
double probe_split_kernel(std::span<const pdc::data::Record> data,
                          std::span<const pdc::data::Record> sample, int q,
                          SpanLog* log);

/// MB/s of a full BlockReader scan of `file` in `dir`, median of three.
double probe_scan(const std::string& dir, const std::string& file,
                  const pdc::io::PipelineConfig& pipeline,
                  const pdc::mp::Machine& machine, SpanLog* log);

/// Single-threaded CompiledTree::predict_block records/s over the pool.
double probe_predict_block(const pdc::serve::CompiledTree& model,
                           const ServePool& pool, double seconds,
                           SpanLog* log);

// ---------------------------------------------------------- workloads ---

Outcome run_train(const Spec& spec, const Options& opt, SpanLog& log);

}  // namespace hostbench
