#include "pclouds/problem.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/wire.hpp"
#include "mp/serialize.hpp"
#include "pclouds/alive.hpp"
#include "pclouds/combiners.hpp"
#include "pclouds/stats_codec.hpp"

namespace pdc::pclouds {

using clouds::NodeStats;
using clouds::SplitCandidate;
using data::Record;

CloudsProblem::CloudsProblem(const PcloudsConfig& cfg,
                             std::uint64_t root_records,
                             std::vector<Record> replicated_sample,
                             clouds::CostHooks hooks, io::LocalDisk* disk)
    : cfg_(cfg),
      root_records_(root_records),
      root_sample_(std::move(replicated_sample)),
      hooks_(hooks),
      disk_(disk) {
  if (cfg_.clouds.method == clouds::SplitMethod::kDirect) {
    throw std::invalid_argument(
        "pclouds: large nodes use SS or SSE; kDirect is for small nodes");
  }
  node_of_[0] = tree_.root();
}

CloudsProblem::TaskCtx& CloudsProblem::ctx_of(const dc::Task& task) {
  auto it = ctxs_.find(task.id);
  if (it != ctxs_.end()) return it->second;
  if (task.id != 0) {
    throw std::logic_error("pclouds: missing context for non-root task");
  }
  // Root context: sample mode derives boundaries from the full replicated
  // sample; sketch mode starts with empty sketches (boundaries are derived
  // in decide(), after the sketches are globally merged).
  TaskCtx ctx;
  if (sketch_mode()) {
    ctx.local = NodeStats::with_boundaries({}, cfg_.clouds.q_min);
    ctx.sketches.assign(data::kNumNumeric,
                        clouds::QuantileSketch(cfg_.sketch_k));
  } else {
    ctx.sample = root_sample_;
    const int q = cfg_.clouds.q_for(task.global_n, root_records_);
    ctx.local = NodeStats::with_boundaries(ctx.sample, q);
  }
  return ctxs_.emplace(task.id, std::move(ctx)).first->second;
}

std::vector<std::byte> CloudsProblem::encode_sketch_blob(
    const TaskCtx& ctx) const {
  // [ClassCounts][sketch * kNumNumeric]
  mp::WireWriter w;
  w.put(ctx.local.counts);  // pdc: nonwire(local is the stats holder; only counts travels, landing in SketchBlob::counts)
  for (const auto& s : ctx.sketches) s.serialize(w);
  return std::move(w).take();
}

namespace {

/// Adds records at(0) .. at(n-1) to a sketch-mode context: its class counts
/// and one quantile sketch per numeric attribute, each fed in record order.
template <class At>
void add_to_sketches(data::ClassCounts& counts,
                     std::vector<clouds::QuantileSketch>& sketches,
                     std::size_t n, At at) {
  for (std::size_t i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(at(i).label)];
  }
  for (std::size_t a = 0; a < sketches.size(); ++a) {
    for (std::size_t i = 0; i < n; ++i) sketches[a].add(at(i).num[a]);
  }
}

/// One routed block: each record's child, and each child's share of the
/// block as record positions in block order.
class BlockSides {
 public:
  void route(const clouds::Split& split, std::span<const Record> blk,
             std::span<std::uint8_t> child) {
    for (auto& s : sel_) s.resize(blk.size());
    std::array<std::size_t, 2> n{};
    for (std::size_t i = 0; i < blk.size(); ++i) {
      const std::uint8_t c = split.goes_left(blk[i]) ? 0 : 1;
      child[i] = c;
      sel_[c][n[c]++] = static_cast<std::uint32_t>(i);
    }
    n_ = n;
  }

  std::span<const std::uint32_t> of(std::size_t c) const {
    return std::span(sel_[c]).first(n_[c]);
  }

 private:
  std::array<std::vector<std::uint32_t>, 2> sel_;
  std::array<std::size_t, 2> n_{};
};

/// Sample-mode router: fills the children's histograms and count matrices
/// through lookups built for this one partition pass.
struct StatsRouter {
  clouds::Split split;
  std::array<NodeStats*, 2> stats;
  std::array<std::vector<clouds::IntervalLookup>, 2> lookups;
  BlockSides sides;

  void operator()(std::span<const Record> blk, std::span<std::uint8_t> child) {
    sides.route(split, blk, child);
    for (std::size_t c = 0; c < 2; ++c) {
      stats[c]->add_block(blk, sides.of(c), lookups[c]);
    }
  }
};

/// Sketch-mode router: feeds the children's class counts and sketches.
struct SketchRouter {
  clouds::Split split;
  std::array<data::ClassCounts*, 2> counts;
  std::array<std::vector<clouds::QuantileSketch>*, 2> sketches;
  BlockSides sides;

  void operator()(std::span<const Record> blk, std::span<std::uint8_t> child) {
    sides.route(split, blk, child);
    for (std::size_t c = 0; c < 2; ++c) {
      const auto sel = sides.of(c);
      add_to_sketches(*counts[c], *sketches[c], sel.size(),
                      [blk, sel](std::size_t i) -> const Record& {
                        return blk[sel[i]];
                      });
    }
  }
};

struct SketchBlob {
  data::ClassCounts counts{};
  std::vector<clouds::QuantileSketch> sketches;
};

SketchBlob decode_sketch_blob(std::span<const std::byte> blob) {
  mp::WireReader r(blob, "pclouds: sketch blob");
  SketchBlob out;
  // pdc: nonwire(counts mirrors encode's ctx.local.counts; the decode side
  //              has no NodeStats to land it in, only this holder struct)
  out.counts = r.get<data::ClassCounts>();
  out.sketches.reserve(data::kNumNumeric);
  for (int a = 0; a < data::kNumNumeric; ++a) {
    out.sketches.push_back(clouds::QuantileSketch::deserialize(r));
  }
  r.expect_end();
  return out;
}

}  // namespace

void CloudsProblem::drop_ctx(std::int64_t task_id) { ctxs_.erase(task_id); }

std::int32_t CloudsProblem::tree_node_of(std::int64_t task_id) const {
  const auto it = node_of_.find(task_id);
  if (it == node_of_.end()) {
    throw std::out_of_range("pclouds: unknown task id");
  }
  return it->second;
}

std::vector<std::byte> CloudsProblem::local_stats(const Scan& scan,
                                                  const dc::Task& task) {
  auto sp = hooks_.span("histogram-build", "pclouds", task.global_n);
  sp.set_depth(static_cast<std::uint64_t>(task.depth));
  TaskCtx& ctx = ctx_of(task);

  if (sketch_mode()) {
    if (!ctx.filled) {
      // Compute is charged record by record inside the scan (not in one
      // bulk charge afterwards) so the pipelined reader can hide each
      // block's I/O under the previous block's processing.
      scan([&](std::span<const Record> blk) {
        add_to_sketches(ctx.local.counts, ctx.sketches, blk.size(),
                        [blk](std::size_t i) -> const Record& {
                          return blk[i];
                        });
        hooks_.charge_scan_each(blk.size(),
                                static_cast<std::uint64_t>(data::kNumNumeric));
      });
      ctx.filled = true;
    } else if (ctx.prefilled) {
      ++diag_.prefilled_nodes;
    }
    return encode_sketch_blob(ctx);
  }

  if (!ctx.filled) {
    clouds::accumulate_stats(scan, ctx.local, hooks_);
    ctx.filled = true;
  } else if (ctx.prefilled) {
    ++diag_.prefilled_nodes;  // the pass the paper's partitioning saves
  }
  if (cfg_.combiner == CombineMethod::kDistributed ||
      cfg_.combiner == CombineMethod::kVoting) {
    // Stats do not ride the driver's all-to-all: the distributed method
    // gathers them to per-attribute owners, the voting method exchanges
    // only the voted candidates — both inside decide().
    return {};
  }
  return encode_stats(ctx.local);
}

std::vector<std::byte> CloudsProblem::combine(std::vector<std::byte> a,
                                              const std::vector<std::byte>& b) {
  if (sketch_mode()) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    auto sa = decode_sketch_blob(a);
    const auto sb = decode_sketch_blob(b);
    sa.counts += sb.counts;
    for (int i = 0; i < data::kNumNumeric; ++i) {
      sa.sketches[static_cast<std::size_t>(i)].merge(
          sb.sketches[static_cast<std::size_t>(i)]);
    }
    TaskCtx tmp;
    tmp.local.counts = sa.counts;
    tmp.sketches = std::move(sa.sketches);
    return encode_sketch_blob(tmp);
  }
  return combine_stats_blobs(std::move(a), b);
}

std::optional<CloudsProblem::Router> CloudsProblem::decide(
    mp::Comm& comm, const std::vector<std::byte>& stats, const Scan& scan,
    const dc::Task& task) {
  TaskCtx& ctx = ctx_of(task);
  const bool want_alive = cfg_.clouds.method == clouds::SplitMethod::kSSE;

  if (sketch_mode()) {
    // Derive this node's boundaries from the globally merged sketches,
    // then run the statistics pass the sample mode prefilled.
    const auto merged = decode_sketch_blob(stats);
    const int q = cfg_.clouds.q_for(task.global_n, root_records_);
    ctx.local = NodeStats::with_boundaries({}, q);
    for (int a = 0; a < data::kNumNumeric; ++a) {
      auto& hist = ctx.local.hists[static_cast<std::size_t>(a)];
      hist.bounds = merged.sketches[static_cast<std::size_t>(a)].boundaries(q);
      hist.reset_counts();
    }
    clouds::accumulate_stats(scan, ctx.local, hooks_);
  }

  BoundaryDerivation bd;
  if (cfg_.combiner == CombineMethod::kDistributed) {
    bd = derive_distributed(comm, ctx.local, want_alive, hooks_);
  } else if (cfg_.combiner == CombineMethod::kVoting) {
    // Works in both boundary modes: ctx.local is filled either way by the
    // time we get here, and the voting exchange replaces the full-stats
    // broadcast entirely.
    bd = derive_voting(comm, ctx.local, cfg_.vote_k, cfg_.hist_bits,
                       want_alive, hooks_);
  } else if (!sketch_mode()) {
    NodeStats global = ctx.local;  // boundary layout; frequencies replaced
    decode_stats(stats, global);
    bd = derive_replicated(comm, cfg_.combiner, global, want_alive, hooks_);
  } else {
    // Sketch mode did not ship interval statistics through the driver;
    // combine them here with one allgather-fold.
    const auto acc = comm.all_fold(
        encode_stats(ctx.local),
        [](const std::vector<std::byte>& b) { return b; },
        combine_stats_blobs);
    NodeStats global = ctx.local;
    decode_stats(acc, global);
    bd = derive_replicated(comm, cfg_.combiner, global, want_alive, hooks_);
  }

  if (task.id == 0) {
    // The root tree node learns its class counts from the first derivation.
    auto& root = tree_.node(tree_.root());
    root.counts = bd.counts;
    root.label = static_cast<std::int8_t>(
        bd.counts[1] > bd.counts[0] ? 1 : 0);
  }

  if (clouds::stop_expansion(cfg_.clouds, bd.counts, task.depth)) {
    return std::nullopt;
  }

  SplitCandidate best = bd.gini_min;
  if (want_alive) {
    ++diag_.sse_nodes;
    diag_.alive_intervals += bd.alive.size();
    hooks_.tracer.observe("pclouds.alive_intervals_per_node",
                          static_cast<double>(bd.alive.size()));
    const auto outcome = evaluate_alive_parallel(comm, bd.alive, bd.gini_min,
                                                 bd.counts, scan, hooks_);
    best = outcome.best;
    diag_.survival_sum += outcome.survival;
    diag_.alive_points_shipped += outcome.points_shipped;
    hooks_.tracer.observe("pclouds.survival", outcome.survival);
  }
  if (!best.valid) return std::nullopt;

  // Prepare the children and let the router fill their statistics during
  // the framework's partitioning pass.
  //   kSample: partition the replicated sample, derive each child's
  //            interval boundaries from its sample share (q scales with
  //            the estimated child size), prefill full NodeStats.
  //   kSketch: children get fresh sketches; the router feeds them (and the
  //            class counts) while routing — boundaries are derived at the
  //            child's own decide() from the merged sketches.
  TaskCtx lc;
  TaskCtx rc;
  if (sketch_mode()) {
    lc.local = NodeStats::with_boundaries({}, cfg_.clouds.q_min);
    rc.local = NodeStats::with_boundaries({}, cfg_.clouds.q_min);
    lc.sketches.assign(data::kNumNumeric,
                       clouds::QuantileSketch(cfg_.sketch_k));
    rc.sketches.assign(data::kNumNumeric,
                       clouds::QuantileSketch(cfg_.sketch_k));
  } else {
    for (const auto& r : ctx.sample) {
      (best.split.goes_left(r) ? lc.sample : rc.sample).push_back(r);
    }
    const auto sample_n = std::max<std::size_t>(1, ctx.sample.size());
    const auto est = [&](std::size_t child_sample) {
      return task.global_n * child_sample / sample_n;
    };
    lc.local = NodeStats::with_boundaries(
        lc.sample, cfg_.clouds.q_for(est(lc.sample.size()), root_records_));
    rc.local = NodeStats::with_boundaries(
        rc.sample, cfg_.clouds.q_for(est(rc.sample.size()), root_records_));
  }
  lc.filled = rc.filled = true;
  lc.prefilled = rc.prefilled = true;

  auto [it, inserted] =
      pending_.emplace(task.id, std::make_pair(std::move(lc), std::move(rc)));
  if (!inserted) {
    throw std::logic_error("pclouds: task decided twice");
  }
  splits_[task.id] = best.split;

  // The router fills the children's statistics a block at a time while
  // the driver partitions; the driver charges each record's scan right
  // before appending it, so the async writers hide their flushes under the
  // same compute as a record-at-a-time pass.
  const double record_s =
      hooks_.scan_cost(static_cast<std::uint64_t>(data::kNumAttributes));
  TaskCtx& lchild = it->second.first;
  TaskCtx& rchild = it->second.second;
  if (sketch_mode()) {
    return Router{SketchRouter{best.split,
                               {&lchild.local.counts, &rchild.local.counts},
                               {&lchild.sketches, &rchild.sketches},
                               {}},
                  record_s};
  }
  return Router{StatsRouter{best.split,
                            {&lchild.local, &rchild.local},
                            {lchild.local.lookups(), rchild.local.lookups()},
                            {}},
                record_s};
}

void CloudsProblem::on_split(mp::Comm& comm, const dc::Task& parent,
                             const dc::Task& left, const dc::Task& right) {
  auto pending_it = pending_.find(parent.id);
  if (pending_it == pending_.end()) {
    throw std::logic_error("pclouds: on_split without a pending decision");
  }
  auto [lc, rc] = std::move(pending_it->second);
  pending_.erase(pending_it);

  // The router updated the children's statistics block by block during
  // partitioning (the driver charged that pass per record); combine the
  // class counts globally so every rank grows an identical tree node.
  struct PairCounts {
    data::ClassCounts l, r;
  };
  const auto sums = comm.all_reduce<PairCounts>(
      PairCounts{lc.local.counts, rc.local.counts},
      [](PairCounts a, const PairCounts& b) {
        a.l += b.l;
        a.r += b.r;
        return a;
      });

  const auto [lnode, rnode] = tree_.grow(
      tree_node_of(parent.id), splits_.at(parent.id), sums.l, sums.r);
  node_of_[left.id] = lnode;
  node_of_[right.id] = rnode;

  ctxs_.emplace(left.id, std::move(lc));
  ctxs_.emplace(right.id, std::move(rc));
  splits_.erase(parent.id);
  drop_ctx(parent.id);
}

void CloudsProblem::on_leaf(mp::Comm&, const dc::Task& task) {
  drop_ctx(task.id);
}

void CloudsProblem::solve_sequential(const dc::Task& task,
                                     std::vector<Record> data) {
  auto sp = hooks_.span("solve-sequential", "pclouds", data.size());
  sp.set_depth(static_cast<std::uint64_t>(task.depth));
  clouds::CloudsConfig scfg = cfg_.clouds;
  scfg.max_depth = std::max(0, cfg_.clouds.max_depth - task.depth);

  const io::MemoryBudget budget(std::max<std::size_t>(cfg_.memory_bytes, 1));
  clouds::DecisionTree subtree;
  if (disk_ == nullptr || budget.fits(data.size(), sizeof(Record))) {
    // The intended case: small nodes fit in memory and are solved with the
    // direct method.
    scfg.method = clouds::SplitMethod::kDirect;
    clouds::CloudsBuilder builder(scfg, hooks_);
    subtree = builder.build(data);
  } else {
    // A "small" node that still exceeds the memory limit — this is what a
    // task-parallel assignment of an upper-level node produces.  The owner
    // must spill the data to its own disk and build out-of-core, paying the
    // single-disk I/O the paper warns about.
    scfg.method = clouds::SplitMethod::kSSE;
    const std::string spill = "seq_task_" + std::to_string(task.id);
    disk_->write_file<Record>(spill, data);
    std::vector<Record> sample;
    const std::size_t stride = std::max<std::size_t>(
        1, static_cast<std::size_t>(1.0 / std::max(1e-6,
                                                   cfg_.clouds.sample_rate)));
    for (std::size_t i = 0; i < data.size(); i += stride) {
      sample.push_back(data[i]);
    }
    data.clear();
    data.shrink_to_fit();
    clouds::CloudsBuilder builder(scfg, hooks_);
    subtree = builder.build_out_of_core(*disk_, spill, std::move(sample),
                                        budget);
    disk_->remove(spill);
  }
  small_subtrees_.emplace_back(task.id, subtree.serialize());
  drop_ctx(task.id);
}

std::vector<std::byte> CloudsProblem::export_subtree(const dc::Task& task) {
  // A subtree solved sequentially on this rank still sits in the graft
  // queue; fold it into the local replica on the way out so ancestors'
  // exports see the complete branch, and hand the bytes to the driver.
  for (auto it = small_subtrees_.begin(); it != small_subtrees_.end(); ++it) {
    if (it->first == task.id) {
      tree_.graft(tree_node_of(task.id), it->second);
      auto blob = mp::to_bytes(std::span<const clouds::TreeNode>(it->second));
      small_subtrees_.erase(it);
      return blob;
    }
  }
  const auto nodes = tree_.extract(tree_node_of(task.id));
  return mp::to_bytes(std::span<const clouds::TreeNode>(nodes));
}

void CloudsProblem::absorb_subtree(const dc::Task& task,
                                   std::span<const std::byte> blob) {
  const auto nodes = mp::from_bytes<clouds::TreeNode>(blob);
  tree_.graft(tree_node_of(task.id), nodes);
}

double CloudsProblem::sequential_cost(std::uint64_t n) const {
  // Direct method: sort every numeric attribute of the node.
  const double dn = static_cast<double>(n);
  return n <= 1 ? 1.0
                : static_cast<double>(data::kNumNumeric) * dn * std::log2(dn);
}

// ------------------------------------------------- checkpoint codec ---

namespace {

void put_stats(mp::WireWriter& w, const NodeStats& s) {
  w.put(s.counts);
  w.put<std::uint64_t>(s.hists.size());
  for (const auto& h : s.hists) {
    w.put_vec<float>(h.bounds);
    w.put_vec<data::ClassCounts>(h.freq);
  }
  w.put<std::uint64_t>(s.cats.size());
  for (const auto& c : s.cats) {
    // pdc: nonwire(attr travels as the CountMatrix constructor argument on
    //              the read side, not as a field assignment)
    w.put<int>(c.attr);
    w.put_vec<data::ClassCounts>(c.counts);
  }
}

NodeStats get_stats(mp::WireReader& r) {
  NodeStats s;
  s.counts = r.get<data::ClassCounts>();
  // Every histogram costs at least its two vector headers on the wire.
  s.hists.resize(r.get_count(2 * sizeof(std::uint64_t)));
  for (auto& h : s.hists) {
    h.bounds = r.get_vec<float>();
    h.freq = r.get_vec<data::ClassCounts>();
  }
  const auto nc = r.get_count(sizeof(int) + sizeof(std::uint64_t));
  s.cats.clear();
  s.cats.reserve(nc);
  for (std::size_t i = 0; i < nc; ++i) {
    const int attr = r.get<int>();
    // The CountMatrix constructor indexes kCatCardinality[attr]; a corrupt
    // attribute id must be rejected before it reaches that table.
    if (attr < 0 || attr >= data::kNumCategorical) {
      throw WireError("pclouds: categorical attribute id out of range");
    }
    clouds::CountMatrix c(attr);
    c.counts = r.get_vec<data::ClassCounts>();
    s.cats.push_back(std::move(c));
  }
  return s;
}

template <class Map>
std::vector<std::int64_t> sorted_keys(const Map& m) {
  std::vector<std::int64_t> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::vector<std::byte> CloudsProblem::export_state() const {
  // The driver snapshots at a loop boundary, where no decision is in
  // flight — a non-empty pending_/splits_ would mean the snapshot point is
  // wrong, not that there is more to save.
  if (!pending_.empty() || !splits_.empty()) {
    throw std::logic_error("pclouds: export_state with a decision in flight");
  }
  mp::WireWriter w;
  // Decisions replay after a resume, so the knobs that steer them must
  // match the snapshot's; stamp them first and verify on restore.
  w.put<std::int32_t>(static_cast<std::int32_t>(cfg_.combiner));
  w.put<std::int32_t>(cfg_.vote_k);
  w.put<std::int32_t>(cfg_.hist_bits);
  w.put_vec<clouds::TreeNode>(tree_.serialize());

  w.put<std::uint64_t>(node_of_.size());
  for (const auto id : sorted_keys(node_of_)) {
    w.put(id);
    w.put(node_of_.at(id));
  }

  w.put<std::uint64_t>(ctxs_.size());
  for (const auto id : sorted_keys(ctxs_)) {
    const TaskCtx& ctx = ctxs_.at(id);
    w.put(id);
    w.put<std::uint8_t>(ctx.filled ? 1 : 0);
    w.put<std::uint8_t>(ctx.prefilled ? 1 : 0);
    w.put_vec<Record>(ctx.sample);
    put_stats(w, ctx.local);
    w.put<std::uint64_t>(ctx.sketches.size());
    for (const auto& s : ctx.sketches) s.serialize(w);
  }

  w.put<std::uint64_t>(small_subtrees_.size());
  for (const auto& [id, nodes] : small_subtrees_) {
    w.put(id);
    w.put_vec<clouds::TreeNode>(nodes);
  }

  w.put(diag_);
  return std::move(w).take();
}

void CloudsProblem::restore_state(std::span<const std::byte> blob) {
  mp::WireReader r(blob, "pclouds: checkpoint blob");
  const auto snap_combiner = r.get<std::int32_t>();
  const auto snap_vote_k = r.get<std::int32_t>();
  const auto snap_hist_bits = r.get<std::int32_t>();
  if (snap_combiner != static_cast<std::int32_t>(cfg_.combiner) ||
      snap_vote_k != cfg_.vote_k || snap_hist_bits != cfg_.hist_bits) {
    throw std::runtime_error(
        "pclouds: snapshot was taken under a different combiner "
        "configuration; resume with the matching --combiner/--vote-k/"
        "--hist-bits or start fresh");
  }
  tree_ = clouds::DecisionTree::deserialize(r.get_vec<clouds::TreeNode>());

  node_of_.clear();
  // Every entry costs an int64 task id plus an int32 node index.
  const auto n_nodes =
      r.get_count(sizeof(std::int64_t) + sizeof(std::int32_t));
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto id = r.get<std::int64_t>();
    const auto node = r.get<std::int32_t>();
    node_of_.emplace(id, node);
  }

  ctxs_.clear();
  pending_.clear();
  splits_.clear();
  // Every context costs at least its id, two flags and a sample header.
  const auto n_ctxs =
      r.get_count(sizeof(std::int64_t) + 2 + sizeof(std::uint64_t));
  for (std::size_t i = 0; i < n_ctxs; ++i) {
    const auto id = r.get<std::int64_t>();
    TaskCtx ctx;
    ctx.filled = r.get<std::uint8_t>() != 0;
    ctx.prefilled = r.get<std::uint8_t>() != 0;
    ctx.sample = r.get_vec<Record>();
    ctx.local = get_stats(r);
    // A serialized sketch is at least four u64 headers.
    const auto n_sketches = r.get_count(4 * sizeof(std::uint64_t));
    ctx.sketches.reserve(n_sketches);
    for (std::size_t s = 0; s < n_sketches; ++s) {
      ctx.sketches.push_back(clouds::QuantileSketch::deserialize(r));
    }
    ctxs_.emplace(id, std::move(ctx));
  }

  small_subtrees_.clear();
  // Every entry costs an int64 id plus a u64 vector header.
  const auto n_small = r.get_count(2 * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < n_small; ++i) {
    const auto id = r.get<std::int64_t>();
    small_subtrees_.emplace_back(id, r.get_vec<clouds::TreeNode>());
  }

  diag_ = r.get<Diag>();
  r.expect_end();
}

}  // namespace pdc::pclouds
