#include "clouds/builder.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "obs/mem_gauge.hpp"

namespace pdc::clouds {

namespace {

data::ClassCounts count_classes(std::span<const data::Record> records) {
  data::ClassCounts c{};
  for (const auto& r : records) ++c[static_cast<std::size_t>(r.label)];
  return c;
}

std::vector<data::Record> every_kth(std::span<const data::Record> data,
                                    double rate) {
  std::vector<data::Record> out;
  if (data.empty() || rate <= 0.0) return out;
  const auto stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / rate));
  for (std::size_t i = 0; i < data.size(); i += stride) out.push_back(data[i]);
  return out;
}

}  // namespace

bool stop_expansion(const CloudsConfig& cfg, const data::ClassCounts& counts,
                    std::int32_t depth) {
  const auto n = data::total(counts);
  if (n < cfg.min_records) return true;
  if (depth >= cfg.max_depth) return true;
  std::int64_t max_class = 0;
  for (auto c : counts) max_class = std::max(max_class, c);
  return static_cast<double>(max_class) >=
         cfg.purity_stop * static_cast<double>(n);
}

bool CloudsBuilder::should_stop(const data::ClassCounts& counts,
                                std::int32_t depth) const {
  return stop_expansion(cfg_, counts, depth);
}

SplitCandidate CloudsBuilder::derive_split(
    const RecordScan& scan, std::span<const data::Record> sample,
    std::span<const data::Record> records_if_memory,
    std::uint64_t root_records) {
  const std::uint64_t node_records = scan.count();
  if (cfg_.method == SplitMethod::kDirect) {
    if (records_if_memory.empty()) {
      throw std::logic_error(
          "CloudsBuilder: direct method requires in-memory records");
    }
    stats_.records_scanned += node_records;
    return direct_split(records_if_memory, hooks_);
  }

  const int q = cfg_.q_for(node_records, root_records);
  NodeStats stats = NodeStats::with_boundaries(sample, q);
  collect_stats(scan, stats, hooks_);
  stats_.records_scanned += node_records;

  if (cfg_.method == SplitMethod::kSS) {
    return ss_split(stats, hooks_);
  }
  SseDiag diag;
  auto best = sse_split(stats, scan, hooks_, &diag);
  if (stats_.survival_samples == 0) stats_.root_survival = diag.survival;
  stats_.survival_sum += diag.survival;
  ++stats_.survival_samples;
  stats_.second_pass_points += diag.second_pass_points;
  if (diag.alive_intervals > 0) stats_.records_scanned += node_records;
  return best;
}

void CloudsBuilder::build_subtree_in_core(DecisionTree& tree, InCoreTask task,
                                          std::uint64_t root_records) {
  std::deque<InCoreTask> queue;
  queue.push_back(std::move(task));
  while (!queue.empty()) {
    InCoreTask t = std::move(queue.front());
    queue.pop_front();
    ++stats_.nodes_processed;
    ++stats_.in_core_nodes;

    const auto counts = tree.node(t.node).counts;
    if (should_stop(counts, t.depth)) {
      ++stats_.leaves;
      continue;
    }

    const auto best =
        derive_split(RecordScan(t.data), t.sample, t.data, root_records);
    // Require an actual partition: both sides non-empty.
    if (!best.valid) {
      ++stats_.leaves;
      continue;
    }

    InCoreTask left;
    InCoreTask right;
    for (const auto& r : t.data) {
      (best.split.goes_left(r) ? left.data : right.data).push_back(r);
    }
    hooks_.charge_scan(t.data.size());
    if (left.data.empty() || right.data.empty()) {
      ++stats_.leaves;
      continue;
    }
    for (const auto& r : t.sample) {
      (best.split.goes_left(r) ? left.sample : right.sample).push_back(r);
    }

    const auto [lid, rid] = tree.grow(t.node, best.split,
                                      count_classes(left.data),
                                      count_classes(right.data));
    left.node = lid;
    right.node = rid;
    left.depth = right.depth = t.depth + 1;
    queue.push_back(std::move(left));
    queue.push_back(std::move(right));
  }
}

DecisionTree CloudsBuilder::build(std::span<const data::Record> data,
                                  std::span<const data::Record> sample) {
  stats_ = BuildStats{};
  std::vector<data::Record> own_sample;
  if (sample.empty()) {
    own_sample = every_kth(data, cfg_.sample_rate);
    sample = own_sample;
  }
  DecisionTree tree(count_classes(data));
  InCoreTask root;
  root.node = tree.root();
  root.data.assign(data.begin(), data.end());
  root.sample.assign(sample.begin(), sample.end());
  root.depth = 0;
  build_subtree_in_core(tree, std::move(root), data.size());
  return tree;
}

DecisionTree CloudsBuilder::build_out_of_core(io::LocalDisk& disk,
                                              const std::string& file,
                                              std::vector<data::Record> sample,
                                              const io::MemoryBudget& budget) {
  stats_ = BuildStats{};
  // The pre-drawn sample is the build's one dataset-independent resident
  // buffer: charge it for the whole run (children inherit slices of it, so
  // the root size is the bound).
  obs::MemCharge sample_mem(hooks_.mem,
                            sample.size() * sizeof(data::Record));
  const std::uint64_t root_records = disk.file_records<data::Record>(file);
  const std::size_t block =
      budget.block_records(sizeof(data::Record), /*streams=*/3);

  struct DiskTask {
    std::int32_t node;
    std::string file;
    std::vector<data::Record> sample;
    std::int32_t depth;
    data::ClassCounts counts;
  };

  // Root class counts need one cheap pass (later nodes inherit counts from
  // the parent's partitioning step).
  data::ClassCounts root_counts{};
  {
    const RecordScan scan(disk, file, block, cfg_.pipeline);
    scan([&](const data::Record& r) {
      ++root_counts[static_cast<std::size_t>(r.label)];
      hooks_.charge_scan(1);
    });
  }

  DecisionTree tree(root_counts);
  std::deque<DiskTask> queue;
  queue.push_back({tree.root(), file, std::move(sample), 0, root_counts});
  std::uint64_t next_file_id = 0;

  while (!queue.empty()) {
    DiskTask t = std::move(queue.front());
    queue.pop_front();
    const std::uint64_t n = disk.file_records<data::Record>(t.file);

    if (should_stop(t.counts, t.depth)) {
      ++stats_.nodes_processed;
      ++stats_.leaves;
      if (t.file != file) disk.remove(t.file);
      continue;
    }

    if (budget.fits(n, sizeof(data::Record))) {
      // Small node: load and finish the whole subtree in memory.  The
      // buffer is budget-bounded by the fits() guard; charge it while it
      // lives.
      obs::MemCharge load_mem(hooks_.mem, n * sizeof(data::Record));
      InCoreTask mem;
      mem.node = t.node;
      mem.data = disk.read_file<data::Record>(t.file);
      mem.sample = std::move(t.sample);
      mem.depth = t.depth;
      if (t.file != file) disk.remove(t.file);
      build_subtree_in_core(tree, std::move(mem), root_records);
      continue;
    }

    ++stats_.nodes_processed;
    ++stats_.out_of_core_nodes;

    const RecordScan scan(disk, t.file, block, cfg_.pipeline);
    const auto best = derive_split(scan, t.sample, {}, root_records);
    if (!best.valid) {
      ++stats_.leaves;
      if (t.file != file) disk.remove(t.file);
      continue;
    }

    // Partition: stream the node's records into the children's files and
    // count their classes in the same pass (the paper folds the children's
    // statistics updates into this pass to save a separate scan).
    auto part_span = hooks_.span("partition-pass", "clouds", n);
    const std::string lfile = "node_" + std::to_string(next_file_id++);
    const std::string rfile = "node_" + std::to_string(next_file_id++);
    data::ClassCounts lcounts{};
    data::ClassCounts rcounts{};
    {
      io::BlockWriter<data::Record> lw(disk, lfile, block, cfg_.pipeline);
      io::BlockWriter<data::Record> rw(disk, rfile, block, cfg_.pipeline);
      scan([&](const data::Record& r) {
        if (best.split.goes_left(r)) {
          lw.append(r);
          ++lcounts[static_cast<std::size_t>(r.label)];
        } else {
          rw.append(r);
          ++rcounts[static_cast<std::size_t>(r.label)];
        }
        hooks_.charge_scan(1);
      });
      stats_.records_scanned += n;
      lw.close();
      rw.close();
    }
    part_span.close();
    if (t.file != file) disk.remove(t.file);

    if (data::total(lcounts) == 0 || data::total(rcounts) == 0) {
      disk.remove(lfile);
      disk.remove(rfile);
      ++stats_.leaves;
      continue;
    }

    DiskTask left;
    DiskTask right;
    for (const auto& r : t.sample) {
      (best.split.goes_left(r) ? left.sample : right.sample).push_back(r);
    }
    const auto [lid, rid] = tree.grow(t.node, best.split, lcounts, rcounts);
    left.node = lid;
    left.file = lfile;
    left.depth = t.depth + 1;
    left.counts = lcounts;
    right.node = rid;
    right.file = rfile;
    right.depth = t.depth + 1;
    right.counts = rcounts;
    queue.push_back(std::move(left));
    queue.push_back(std::move(right));
  }
  return tree;
}

}  // namespace pdc::clouds
