#pragma once

// RecordScan: one sequential pass over a task's local records — the one
// primitive of the divide-and-conquer interface (paper, Section 3).
//
// A scan reads either an in-memory slice (small nodes, tests) or a file on
// the rank's LocalDisk streamed in BlockReader blocks (the out-of-core
// regime).  The callback sees one block at a time, so a pass can work one
// attribute at a time across a block; it is a template parameter, so it
// inlines into the read loop.  The scan itself is a cheap value that makes
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

  /// One full pass; calls `fn(std::span<const T>)` once per block, blocks
  /// in file order.  An in-memory scan passes its whole span as one block.
  template <class F>
  void operator()(F&& fn) const {
    if (disk_ == nullptr) {
      fn(records_);
      return;
    }
    BlockReader<T> reader(*disk_, name_, block_records_, pipeline_);
    std::vector<T> block;
    while (reader.next_block(block)) fn(std::span<const T>(block));
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
