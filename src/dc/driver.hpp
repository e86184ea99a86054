#pragma once

// DcDriver: builds a divide-and-conquer tree in parallel over disk-resident
// data, under one of the paper's parallelization techniques:
//
//   kDataParallel   every task is solved by all processors, one after
//                   another.  No data movement at all: each rank streams its
//                   local slice, statistics are combined collectively.  The
//                   paper argues this is the technique of choice for large
//                   out-of-core tasks (I/O stays local and balanced).
//   kConcatenated   tasks of one tree level are solved together: their
//                   statistics are spooled into a single collective to save
//                   message startups, but every concurrently-open task
//                   stream shares the memory budget, so streaming blocks
//                   shrink with the level width — the out-of-core penalty
//                   the paper attributes to concatenated parallelism.
//   kTaskParallel   every task below the root split is assigned to a single
//                   owner with compute-dependent parallel I/O (data is
//                   redistributed to the owner, which solves the subtree
//                   locally).  Degenerates badly at upper levels, as the
//                   paper notes.
//   kMixed          the paper's choice: data parallelism for large tasks;
//                   tasks at or below `small_threshold` records are
//                   deferred, then assigned to single owners by LPT over
//                   their estimated costs and redistributed in one batched
//                   exchange ("delayed task parallelism").

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/wire.hpp"
#include "dc/lpt.hpp"
#include "dc/problem.hpp"
#include "fault/checkpoint.hpp"
#include "io/local_disk.hpp"
#include "io/memory_budget.hpp"
#include "io/pipeline.hpp"
#include "io/scan.hpp"
#include "mp/comm.hpp"
#include "obs/trace.hpp"

namespace pdc::dc {

enum class Strategy : int {
  kDataParallel = 0,
  kConcatenated = 1,
  kTaskParallel = 2,
  kMixed = 3,
  /// The paper's full task parallelism (Sec. 3.1): after each split the
  /// processor group divides into two subgroups sized by the children's
  /// costs, each child's data is redistributed onto its subgroup's disks
  /// (compute-dependent parallel I/O), and the subgroups recurse
  /// independently; singleton groups solve their subtree sequentially.
  kTaskGroups = 4,
};

struct DcConfig {
  Strategy strategy = Strategy::kMixed;
  /// Mixed: tasks with at most this many (global) records are deferred to
  /// delayed task parallelism.
  std::uint64_t small_threshold = 0;
  /// Per-rank memory for streaming buffers.
  std::size_t memory_bytes = 1 << 20;
  /// Keep the caller's root file intact (children get driver-owned files).
  bool preserve_root_file = true;
  /// Snapshot the queued loop's state (pending queues, partial result)
  /// every N dequeued tasks; 0 disables checkpointing.  Only the queued
  /// strategies (data-parallel / task-parallel / mixed) checkpoint —
  /// their loop runs in lockstep on every rank, so per-rank snapshots
  /// taken at the same iteration form a globally consistent cut.
  std::uint64_t checkpoint_every = 0;
  /// Start from the newest snapshot that is valid on EVERY rank, if one
  /// exists on the ranks' disks; otherwise run from scratch.
  bool resume = false;
  /// Async double-buffered streaming for the out-of-core hot paths
  /// (statistics scans, partition pass, redistribution spool).  Off by
  /// default: the synchronous path is the differential-test oracle.
  io::PipelineConfig pipeline;
};

struct DcReport {
  std::size_t large_tasks = 0;   ///< tasks processed with data parallelism
  std::size_t small_tasks = 0;   ///< tasks solved by single owners
  std::size_t leaves = 0;        ///< leaves declared by decide()/empty tasks
  std::size_t levels = 0;        ///< concatenated only
  double small_balance = 1.0;    ///< LPT load balance of the small phase
  std::uint64_t records_redistributed = 0;
  std::size_t checkpoints = 0;   ///< snapshots written this run
  bool resumed = false;          ///< this run started from a snapshot
};

template <mp::Wireable T>
class DcDriver {
 public:
  DcDriver(DcConfig cfg, io::LocalDisk& disk)
      : cfg_(cfg), disk_(&disk), budget_(cfg.memory_bytes) {}

  DcReport run(mp::Comm& comm, DcProblem<T>& problem,
               const std::string& root_file) {
    report_ = DcReport{};
    next_id_ = 1;
    ckpt_version_ = 1;

    Pending root;
    root.task.id = 0;
    root.task.parent = -1;
    root.task.depth = 0;
    root.file = root_file;
    root.task.global_n = global_count(comm, root_file);

    if (cfg_.strategy == Strategy::kConcatenated) {
      run_concatenated(comm, problem, std::move(root));
    } else if (cfg_.strategy == Strategy::kTaskGroups) {
      run_group(comm, problem, std::move(root), root_file);
    } else {
      run_queued(comm, problem, std::move(root));
    }
    return report_;
  }

  const DcReport& report() const { return report_; }

 private:
  struct Pending {
    Task task;
    std::string file;
  };

  // ------------------------------------------------------------ helpers ---

  std::uint64_t global_count(mp::Comm& comm, const std::string& file) {
    const std::uint64_t local = disk_->file_records<T>(file);
    return comm.all_reduce<std::uint64_t>(local);
  }

  void drop_file(const Pending& p, const std::string& root_file) {
    if (p.file != root_file || !cfg_.preserve_root_file) {
      disk_->remove(p.file);
    }
  }

  std::vector<std::byte> combined_stats(
      mp::Comm& comm, DcProblem<T>& problem,
      const std::vector<std::byte>& local) {
    auto sp = obs::SpanGuard(comm.tracer(), "combiner-exchange", "dc",
                             local.size());
    comm.tracer().observe("dc.combiner_message_bytes",
                          static_cast<double>(local.size()));
    auto blobs = comm.all_to_all_broadcast<std::byte>(local);
    std::vector<std::byte> acc = std::move(blobs[0]);
    for (int r = 1; r < comm.size(); ++r) {
      acc = problem.combine(std::move(acc),
                            blobs[static_cast<std::size_t>(r)]);
    }
    return acc;
  }

  /// Partition `parent` into two child tasks; returns them (files written,
  /// parent file removed).  `block` is the per-stream block size.
  std::pair<Pending, Pending> partition(
      mp::Comm& comm, DcProblem<T>& problem, const Pending& parent,
      const typename DcProblem<T>::Router& router, std::size_t block,
      const std::string& root_file) {
    auto sp = obs::SpanGuard(comm.tracer(), "partition-pass", "dc");
    Pending left;
    Pending right;
    left.file = "dc_" + std::to_string(next_id_);
    right.file = "dc_" + std::to_string(next_id_ + 1);
    std::uint64_t ln = 0;
    std::uint64_t rn = 0;
    {
      io::BlockWriter<T> lw(*disk_, left.file, block, cfg_.pipeline);
      io::BlockWriter<T> rw(*disk_, right.file, block, cfg_.pipeline);
      const io::RecordScan<T> scan(*disk_, parent.file, block, cfg_.pipeline);
      scan([&](const T& rec) {
        if (router(rec) == 0) {
          lw.append(rec);
          ++ln;
        } else {
          rw.append(rec);
          ++rn;
        }
      });
      lw.close();
      rw.close();
    }
    drop_file(parent, root_file);
    sp.set_n(ln + rn);
    comm.tracer().observe("dc.partition_pass_records",
                          static_cast<double>(ln + rn));

    // One combined collective settles both children's global sizes.
    struct Pair {
      std::uint64_t l, r;
    };
    const auto sums = comm.all_reduce<Pair>(
        Pair{ln, rn}, [](Pair a, const Pair& b) {
          a.l += b.l;
          a.r += b.r;
          return a;
        });

    left.task.id = next_id_++;
    right.task.id = next_id_++;
    left.task.parent = right.task.parent = parent.task.id;
    left.task.child_index = 0;
    right.task.child_index = 1;
    left.task.depth = right.task.depth = parent.task.depth + 1;
    left.task.global_n = sums.l;
    right.task.global_n = sums.r;

    problem.on_split(comm, parent.task, left.task, right.task);
    return {std::move(left), std::move(right)};
  }

  // ------------------------------------------- data / task / mixed loop ---

  void run_queued(mp::Comm& comm, DcProblem<T>& problem, Pending root) {
    const std::string root_file = root.file;
    const std::uint64_t threshold = small_threshold();

    std::deque<Pending> queue;
    std::vector<Pending> small;
    if (!cfg_.resume || !try_restore(comm, problem, queue, small)) {
      queue.push_back(std::move(root));
    }
    std::uint64_t since_ckpt = 0;

    while (!queue.empty()) {
      comm.tracer().counter("dc.queue_depth",
                            static_cast<double>(queue.size()));
      comm.tracer().counter("dc.small_backlog",
                            static_cast<double>(small.size()));
      // The loop body below is identical on every rank (the queue holds
      // the same tasks everywhere; only the record payloads differ), so
      // counting dequeues keeps the ranks' snapshot points aligned without
      // any extra collective.
      if (cfg_.checkpoint_every > 0 && since_ckpt >= cfg_.checkpoint_every) {
        write_checkpoint(comm, problem, queue, small);
        since_ckpt = 0;
      }
      ++since_ckpt;
      Pending cur = std::move(queue.front());
      queue.pop_front();

      if (cur.task.global_n == 0) {
        problem.on_leaf(comm, cur.task);
        ++report_.leaves;
        drop_file(cur, root_file);
        continue;
      }
      if (cur.task.global_n <= threshold) {
        small.push_back(std::move(cur));
        continue;
      }

      ++report_.large_tasks;
      auto sp = obs::SpanGuard(comm.tracer(), "large-node", "dc", obs::kNoArg,
                               cur.task.global_n);
      sp.set_depth(static_cast<std::uint64_t>(cur.task.depth));
      const std::size_t block = budget_.block_records(sizeof(T), 3);
      const io::RecordScan<T> scan(*disk_, cur.file, block, cfg_.pipeline);
      const auto local = problem.local_stats(scan, cur.task);
      const auto global = combined_stats(comm, problem, local);
      auto router = problem.decide(comm, global, scan, cur.task);
      if (!router) {
        problem.on_leaf(comm, cur.task);
        ++report_.leaves;
        drop_file(cur, root_file);
        continue;
      }
      auto [left, right] =
          partition(comm, problem, cur, *router, block, root_file);
      queue.push_back(std::move(left));
      queue.push_back(std::move(right));
    }

    if (!small.empty()) {
      solve_small_batch(comm, problem, small, root_file);
    }
  }

  // ------------------------------------------------------- concatenated ---

  void run_concatenated(mp::Comm& comm, DcProblem<T>& problem, Pending root) {
    const std::string root_file = root.file;
    std::vector<Pending> level;
    level.push_back(std::move(root));

    while (!level.empty()) {
      ++report_.levels;
      // All tasks of the level are "solved together": every task keeps its
      // streams open conceptually, so the memory budget is split across the
      // whole level and blocks shrink accordingly.
      const std::size_t streams = 3 * level.size();
      const std::size_t block = budget_.block_records(sizeof(T), streams);

      // Spool all local statistics into ONE collective (saving the per-task
      // message startups — concatenated parallelism's selling point).
      std::vector<std::vector<std::byte>> locals(level.size());
      for (std::size_t i = 0; i < level.size(); ++i) {
        if (level[i].task.global_n == 0) continue;
        const io::RecordScan<T> scan(*disk_, level[i].file, block,
                                     cfg_.pipeline);
        locals[i] = problem.local_stats(scan, level[i].task);
      }
      auto frames =
          comm.all_to_all_broadcast<std::byte>(frame_blobs(locals));
      std::vector<std::vector<std::byte>> combined =
          unframe_blobs(frames[0], level.size());
      for (int r = 1; r < comm.size(); ++r) {
        auto other = unframe_blobs(frames[static_cast<std::size_t>(r)],
                                   level.size());
        for (std::size_t i = 0; i < level.size(); ++i) {
          combined[i] = problem.combine(std::move(combined[i]), other[i]);
        }
      }

      std::vector<Pending> next;
      for (std::size_t i = 0; i < level.size(); ++i) {
        Pending& cur = level[i];
        if (cur.task.global_n == 0) {
          problem.on_leaf(comm, cur.task);
          ++report_.leaves;
          drop_file(cur, root_file);
          continue;
        }
        ++report_.large_tasks;
        const io::RecordScan<T> scan(*disk_, cur.file, block, cfg_.pipeline);
        auto router = problem.decide(comm, combined[i], scan, cur.task);
        if (!router) {
          problem.on_leaf(comm, cur.task);
          ++report_.leaves;
          drop_file(cur, root_file);
          continue;
        }
        auto [left, right] =
            partition(comm, problem, cur, *router, block, root_file);
        next.push_back(std::move(left));
        next.push_back(std::move(right));
      }
      level = std::move(next);
    }
  }

  // ---------------------------------------- group task parallelism -------

  /// Recursive task parallelism with processor groups.  Invariant: the
  /// task's data lives only on the disks of `comm`'s members.
  void run_group(mp::Comm& comm, DcProblem<T>& problem, Pending cur,
                 const std::string& root_file) {
    if (cur.task.global_n == 0) {
      problem.on_leaf(comm, cur.task);
      ++report_.leaves;
      drop_file(cur, root_file);
      return;
    }
    if (comm.size() == 1) {
      // Terminal group: solve the whole subtree sequentially.
      auto data = disk_->read_file<T>(cur.file);
      drop_file(cur, root_file);
      ++report_.small_tasks;
      problem.solve_sequential(cur.task, std::move(data));
      return;
    }

    // One data-parallel split within the group.
    ++report_.large_tasks;
    const std::size_t block = budget_.block_records(sizeof(T), 3);
    const io::RecordScan<T> scan(*disk_, cur.file, block, cfg_.pipeline);
    const auto local = problem.local_stats(scan, cur.task);
    const auto global = combined_stats(comm, problem, local);
    auto router = problem.decide(comm, global, scan, cur.task);
    if (!router) {
      problem.on_leaf(comm, cur.task);
      ++report_.leaves;
      drop_file(cur, root_file);
      return;
    }
    auto [left, right] =
        partition(comm, problem, cur, *router, block, root_file);

    // Subgroups sized by the children's estimated sequential costs.
    const double cl = problem.sequential_cost(left.task.global_n);
    const double cr = problem.sequential_cost(right.task.global_n);
    int pl = static_cast<int>(
        std::llround(comm.size() * cl / std::max(1e-12, cl + cr)));
    pl = std::max(1, std::min(comm.size() - 1, pl));
    const int color = comm.rank() < pl ? 0 : 1;

    // Compute-dependent parallel I/O: ship every record of each child onto
    // its subgroup's disks, round-robin for balance.  One exchange moves
    // both children (their destination sets are disjoint).
    Pending mine = redistribute(comm, problem, left, right, pl,
                                color == 0 ? left : right, block);

    mp::Comm sub = comm.split(color);
    run_group(sub, problem, std::move(mine), root_file);

    // Unwind: the two subgroups exchange their finished subtrees so every
    // member of this group holds the whole subtree of `cur`.
    const auto my_blob =
        problem.export_subtree(color == 0 ? left.task : right.task);
    const bool leader = comm.rank() == 0 || comm.rank() == pl;
    const auto blobs = comm.all_to_all_broadcast<std::byte>(
        leader ? my_blob : std::vector<std::byte>{});
    problem.absorb_subtree(color == 0 ? right.task : left.task,
                           blobs[static_cast<std::size_t>(color == 0 ? pl : 0)]);
  }

  /// Moves each child's records onto its subgroup's disks; returns the
  /// caller's own child with its file name rewritten to the received data.
  Pending redistribute(mp::Comm& comm, DcProblem<T>&, const Pending& left,
                       const Pending& right, int pl, const Pending& own,
                       std::size_t block) {
    auto sp = obs::SpanGuard(comm.tracer(), "redistribute", "dc");
    const auto p = static_cast<std::size_t>(comm.size());
    std::vector<std::vector<T>> outgoing(p);
    auto route_child = [&](const Pending& child, int base, int gsize) {
      std::uint64_t k = 0;
      const io::RecordScan<T> scan(*disk_, child.file, block, cfg_.pipeline);
      scan([&](const T& rec) {
        const auto dest = static_cast<std::size_t>(
            base + static_cast<int>(k % static_cast<std::uint64_t>(gsize)));
        // pdc: incore(redistribution staging: holds one local child slice for the subgroup all_to_all exchange)
        outgoing[dest].push_back(rec);
        ++k;
      });
      report_.records_redistributed += k;
      disk_->remove(child.file);
    };
    route_child(left, 0, pl);
    route_child(right, pl, comm.size() - pl);

    const auto incoming = comm.all_to_all<T>(outgoing);
    Pending mine = own;
    mine.file = "dcg_" + std::to_string(own.task.id);
    io::BlockWriter<T> writer(*disk_, mine.file, block, cfg_.pipeline);
    for (const auto& from_rank : incoming) {
      writer.append(std::span<const T>(from_rank));
    }
    writer.close();
    return mine;
  }

  // ------------------------------------------------ delayed task phase ---

  void solve_small_batch(mp::Comm& comm, DcProblem<T>& problem,
                         std::vector<Pending>& small,
                         const std::string& root_file) {
    auto sp = obs::SpanGuard(comm.tracer(), "small-node-drain", "dc",
                             obs::kNoArg, small.size());
    report_.small_tasks = small.size();

    // Deterministic owner assignment from the (globally known) task sizes.
    std::vector<double> costs(small.size());
    for (std::size_t i = 0; i < small.size(); ++i) {
      costs[i] = problem.sequential_cost(small[i].task.global_n);
    }
    const auto assign = lpt_assign(costs, comm.size());
    report_.small_balance = assign.balance;

    // Batched redistribution (compute-dependent parallel I/O): every rank
    // reads each small task's local slice once and ships it to the task's
    // owner; two collectives move everything ("delayed" = one exchange for
    // all small tasks instead of one per task).
    const auto p = static_cast<std::size_t>(comm.size());
    std::vector<std::vector<std::uint64_t>> meta(p);
    std::vector<std::vector<T>> payload(p);
    for (std::size_t i = 0; i < small.size(); ++i) {
      const auto dest = static_cast<std::size_t>(assign.owner[i]);
      auto slice = disk_->read_file<T>(small[i].file);
      report_.records_redistributed += slice.size();
      meta[dest].push_back(slice.size());
      payload[dest].insert(payload[dest].end(), slice.begin(), slice.end());
      drop_file(small[i], root_file);
    }
    const auto in_meta = comm.all_to_all<std::uint64_t>(meta);
    const auto in_payload = comm.all_to_all<T>(payload);

    // Owned tasks, in ascending position within `small` — the order both
    // the senders and the receiver enumerate them.
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < small.size(); ++i) {
      if (assign.owner[i] == comm.rank()) mine.push_back(i);
    }

    std::vector<std::size_t> cursor(p, 0);  // per-source payload offset
    for (std::size_t k = 0; k < mine.size(); ++k) {
      std::vector<T> data;
      data.reserve(small[mine[k]].task.global_n);
      for (std::size_t src = 0; src < p; ++src) {
        const std::uint64_t n = in_meta[src][k];
        data.insert(data.end(),
                    in_payload[src].begin() +
                        static_cast<std::ptrdiff_t>(cursor[src]),
                    in_payload[src].begin() +
                        static_cast<std::ptrdiff_t>(cursor[src] + n));
        cursor[src] += n;
      }
      problem.solve_sequential(small[mine[k]].task, std::move(data));
    }
  }

  // --------------------------------------------- checkpoint / restart ---

  template <class V>
  static void append_raw(std::vector<std::byte>& out, const V& v) {
    static_assert(std::is_trivially_copyable_v<V>);
    const auto at = out.size();
    out.resize(at + sizeof(V));
    std::memcpy(out.data() + at, &v, sizeof(V));  // pdc-lint: allow(PDC010) -- trivially-copyable value onto the checkpoint wire
  }

  template <class V>
  static V take_raw(std::span<const std::byte> in, std::size_t& at) {
    static_assert(std::is_trivially_copyable_v<V>);
    if (at > in.size() || in.size() - at < sizeof(V)) {
      throw WireError("DcDriver: truncated checkpoint state");
    }
    V v;
    std::memcpy(&v, in.data() + at, sizeof(V));  // pdc-lint: allow(PDC010) -- trivially-copyable value off the wire; bounds-checked above
    at += sizeof(V);
    return v;
  }

  /// Snapshot this rank's view of the loop: driver counters, the problem's
  /// partial result, both pending queues, and the raw contents of every
  /// pending task's data file (the live files keep changing after the
  /// snapshot, so the snapshot must carry its own copies).  Purely local —
  /// no collective — because every rank reaches this point at the same
  /// iteration with the same version counter.
  void write_checkpoint(mp::Comm& comm, DcProblem<T>& problem,
                        const std::deque<Pending>& queue,
                        const std::vector<Pending>& small) {
    auto sp = obs::SpanGuard(comm.tracer(), "checkpoint-write", "fault");
    std::vector<fault::CheckpointBlob> blobs;
    std::vector<std::byte> state;
    append_raw(state, next_id_);
    append_raw(state, report_);
    append_raw(state, static_cast<std::uint64_t>(queue.size()));
    append_raw(state, static_cast<std::uint64_t>(small.size()));
    std::size_t idx = 0;
    auto add_entry = [&](const Pending& p) {
      append_raw(state, p.task);
      append_raw(state, static_cast<std::uint64_t>(p.file.size()));
      const auto at = state.size();
      state.resize(at + p.file.size());
      std::memcpy(state.data() + at, p.file.data(), p.file.size());  // pdc-lint: allow(PDC010) -- file-name bytes onto the wire, length framed above
      blobs.push_back({"task_" + std::to_string(idx++),
                       disk_->read_file<std::byte>(p.file)});
    };
    for (const auto& p : queue) add_entry(p);
    for (const auto& p : small) add_entry(p);
    blobs.push_back({"problem", problem.export_state()});
    blobs.push_back({"state", std::move(state)});

    fault::CheckpointStore store(*disk_);
    store.write(ckpt_version_, blobs);
    ++ckpt_version_;
    store.gc(2);
    ++report_.checkpoints;
    comm.tracer().count("fault.checkpoints");
  }

  /// Restart from the newest snapshot valid on every rank.  The agreement
  /// is one small collective: each rank publishes its list of locally
  /// valid versions, everyone intersects, and all ranks pick the same
  /// maximum — so a crash that left some ranks one version ahead (or with
  /// a torn snapshot) still resolves to a consistent cut.
  bool try_restore(mp::Comm& comm, DcProblem<T>& problem,
                   std::deque<Pending>& queue, std::vector<Pending>& small) {
    auto sp = obs::SpanGuard(comm.tracer(), "checkpoint-restore", "fault");
    fault::CheckpointStore store(*disk_);
    const auto mine = store.valid_versions();
    const auto all = comm.all_to_all_broadcast<std::uint64_t>(
        std::span<const std::uint64_t>(mine));
    std::set<std::uint64_t> common(all[0].begin(), all[0].end());
    for (int r = 1; r < comm.size(); ++r) {
      const std::set<std::uint64_t> theirs(
          all[static_cast<std::size_t>(r)].begin(),
          all[static_cast<std::size_t>(r)].end());
      std::erase_if(common,
                    [&](std::uint64_t v) { return !theirs.contains(v); });
    }
    if (common.empty()) return false;
    const std::uint64_t v = *common.rbegin();

    const auto state = store.read_blob(v, "state");
    std::size_t at = 0;
    next_id_ = take_raw<std::int64_t>(state, at);
    report_ = take_raw<DcReport>(state, at);
    const auto n_queue = take_raw<std::uint64_t>(state, at);
    const auto n_small = take_raw<std::uint64_t>(state, at);
    // Every pending entry costs at least a Task plus a u64 name length on
    // the wire; counts the remaining bytes cannot hold are corrupt.
    const std::size_t entry_floor = sizeof(Task) + sizeof(std::uint64_t);
    if (n_queue > (state.size() - at) / entry_floor ||
        n_small > (state.size() - at) / entry_floor) {
      throw WireError("DcDriver: pending count overruns checkpoint state");
    }
    std::size_t idx = 0;
    auto take_entry = [&]() {
      Pending p;
      p.task = take_raw<Task>(state, at);
      const auto len = take_raw<std::uint64_t>(state, at);
      if (state.size() - at < len) {
        throw WireError("DcDriver: truncated checkpoint state");
      }
      p.file.assign(reinterpret_cast<const char*>(state.data() + at),  // pdc-lint: allow(PDC010) -- file-name bytes off the wire; len bounds-checked above
                    static_cast<std::size_t>(len));
      at += len;
      const auto content =
          store.read_blob(v, "task_" + std::to_string(idx++));
      disk_->write_file<std::byte>(p.file, content);
      return p;
    };
    for (std::uint64_t i = 0; i < n_queue; ++i) queue.push_back(take_entry());
    for (std::uint64_t i = 0; i < n_small; ++i) small.push_back(take_entry());
    problem.restore_state(store.read_blob(v, "problem"));

    // The next snapshot overwrites anything past the agreed cut (a rank
    // that was a version ahead simply re-writes v+1 from the replay).
    ckpt_version_ = v + 1;
    report_.resumed = true;
    comm.tracer().count("fault.resumes");
    return true;
  }

  // --------------------------------------------------------- framing ---

  static std::vector<std::byte> frame_blobs(
      const std::vector<std::vector<std::byte>>& blobs) {
    std::vector<std::uint64_t> sizes;
    sizes.reserve(blobs.size());
    std::size_t total = 0;
    for (const auto& b : blobs) {
      sizes.push_back(b.size());
      total += b.size();
    }
    std::vector<std::byte> out;
    out.reserve(sizes.size() * sizeof(std::uint64_t) + total);
    const auto header = mp::to_bytes(std::span<const std::uint64_t>(sizes));
    out.insert(out.end(), header.begin(), header.end());
    for (const auto& b : blobs) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  static std::vector<std::vector<std::byte>> unframe_blobs(
      const std::vector<std::byte>& frame, std::size_t count) {
    if (frame.size() < count * sizeof(std::uint64_t)) {
      throw WireError("DcDriver: frame too short for its size header");
    }
    std::vector<std::vector<std::byte>> out(count);
    const auto sizes = mp::from_bytes<std::uint64_t>(std::span(
        frame.data(), count * sizeof(std::uint64_t)));
    std::size_t off = count * sizeof(std::uint64_t);
    for (std::size_t i = 0; i < count; ++i) {
      // Each framed size must fit in what is left of the payload before it
      // drives the copy below.
      if (sizes[i] > frame.size() - off) {
        throw WireError("DcDriver: framed blob overruns the payload");
      }
      out[i].assign(frame.begin() + static_cast<std::ptrdiff_t>(off),
                    frame.begin() +
                        static_cast<std::ptrdiff_t>(off + sizes[i]));
      off += sizes[i];
    }
    return out;
  }

  std::uint64_t small_threshold() const {
    switch (cfg_.strategy) {
      case Strategy::kDataParallel:
      case Strategy::kConcatenated:
        return 0;
      case Strategy::kTaskParallel:
        return ~std::uint64_t{0};
      case Strategy::kTaskGroups:
        return 0;  // unused: run_group never consults the threshold
      case Strategy::kMixed:
        return cfg_.small_threshold;
    }
    return 0;
  }

  DcConfig cfg_;
  io::LocalDisk* disk_;
  io::MemoryBudget budget_;
  DcReport report_;
  std::int64_t next_id_ = 1;
  std::uint64_t ckpt_version_ = 1;
};

}  // namespace pdc::dc
