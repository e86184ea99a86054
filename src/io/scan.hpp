#pragma once

// RecordScan: one sequential pass over a task's local records — the one
// primitive of the divide-and-conquer interface (paper, Section 3).
//
// A scan reads either an in-memory slice (small nodes, tests) or a file on
// the rank's LocalDisk streamed in BlockReader blocks (the out-of-core
// regime).  The callback is a template parameter, so each per-record body
// inlines into the block loop; the scan itself is a cheap value that makes
// a fresh pass every time it is called.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "io/local_disk.hpp"
#include "io/pipeline.hpp"

namespace pdc::io {

template <mp::Wireable T>
class RecordScan {
 public:
  /// Scans `records` in order; the caller keeps them alive.
  explicit RecordScan(std::span<const T> records) : records_(records) {}

  /// Streams file `name` of `disk` in blocks of `block_records`.
  RecordScan(LocalDisk& disk, std::string name, std::size_t block_records,
             PipelineConfig pipeline = {})
      : disk_(&disk),
        name_(std::move(name)),
        block_records_(block_records),
        pipeline_(pipeline) {}

  /// One full pass; calls `fn(const T&)` for every record, in order.
  template <class F>
  void operator()(F&& fn) const {
    if (disk_ == nullptr) {
      for (const T& r : records_) fn(r);
      return;
    }
    BlockReader<T> reader(*disk_, name_, block_records_, pipeline_);
    std::vector<T> block;
    while (reader.next_block(block)) {
      for (const T& r : block) fn(r);
    }
  }

  std::uint64_t count() const {
    return disk_ == nullptr ? records_.size()
                            : disk_->file_records<T>(name_);
  }

 private:
  std::span<const T> records_;
  LocalDisk* disk_ = nullptr;
  std::string name_;
  std::size_t block_records_ = 0;
  PipelineConfig pipeline_;
};

}  // namespace pdc::io
