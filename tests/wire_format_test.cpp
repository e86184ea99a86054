// Wire-format pins: the exact bytes of every hand-off format that leaves a
// rank (sketch bytes, the sketch-mode statistics blob, the CheckpointStore
// manifest, CloudsProblem state, the DcDriver `state` blob) are compared
// against committed fixtures under tests/fixtures/wire/.  The round trips
// in codec_fuzz_test pass for any layout that the encoder and decoder
// change the same way; these tests fail on any layout change at all, so a
// snapshot written by an older build keeps resuming under a newer one.
// The WireCodec tests pin the mp::WireWriter/WireReader pair those formats
// are built from: its layout, and that every truncation or oversized count
// is a WireError.
//
// The inputs are seeded from std::mt19937_64 outputs only (never from a
// std:: distribution, whose results differ between standard libraries).
// After an intentional format change, regenerate the fixtures with
// PDC_UPDATE_GOLDEN=1 and say so in the change log: old snapshots then
// stop resuming.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "clouds/quantile_sketch.hpp"
#include "common/wire.hpp"
#include "data/agrawal.hpp"
#include "dc/driver.hpp"
#include "fault/checkpoint.hpp"
#include "io/local_disk.hpp"
#include "io/scan.hpp"
#include "io/scratch.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"
#include "mp/machine.hpp"
#include "mp/runtime.hpp"
#include "mp/serialize.hpp"
#include "pclouds/problem.hpp"

namespace pdc {
namespace {

using data::Record;

std::filesystem::path fixture_path(const std::string& name) {
  return std::filesystem::path(PDC_WIRE_FIXTURE_DIR) / name;
}

/// Compares `bytes` with the committed fixture `name` (or rewrites the
/// fixture when PDC_UPDATE_GOLDEN=1).
void expect_pinned(const std::string& name, std::span<const std::byte> bytes) {
  const auto path = fixture_path(name);
  const char* update = std::getenv("PDC_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing fixture " << path;
  const std::vector<char> raw{std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>()};
  std::vector<std::byte> want(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    want[i] = static_cast<std::byte>(raw[i]);
  }
  ASSERT_EQ(bytes.size(), want.size()) << name << ": length changed";
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bytes[i], want[i]) << name << ": first difference at byte " << i;
  }
}

// ------------------------------------------------- WireWriter/Reader ---

struct Composite {
  std::uint32_t tag = 0;
  std::vector<float> values;
  std::vector<std::uint16_t> raw;
  std::string name;
};

Composite seeded_composite() {
  return {0xc0ffee, {1.5f, -2.0f, 3.25f}, {7, 8, 9}, "task_12"};
}

std::vector<std::byte> encode(const Composite& c) {
  mp::WireWriter w;
  w.put(c.tag);
  w.put_vec<float>(c.values);
  w.put_raw<std::uint16_t>(c.raw);
  w.put_string(c.name);
  return std::move(w).take();
}

Composite decode(std::span<const std::byte> bytes) {
  mp::WireReader r(bytes, "test: composite");
  Composite c;
  c.tag = r.get<std::uint32_t>();
  c.values = r.get_vec<float>();
  c.raw = r.get_raw<std::uint16_t>(3);
  c.name = r.get_string();
  r.expect_end();
  return c;
}

TEST(WireCodec, LayoutIsCountThenRawElements) {
  const auto c = seeded_composite();
  const auto bytes = encode(c);
  // u32 tag | u64 count + 3 floats | 3 raw u16 | u64 length + 7 chars
  ASSERT_EQ(bytes.size(), 4u + (8u + 12u) + 6u + (8u + 7u));
  EXPECT_EQ(mp::value_from_bytes<std::uint64_t>(
                std::span(bytes).subspan(4, 8)),
            3u);
  EXPECT_EQ(mp::value_from_bytes<std::uint64_t>(
                std::span(bytes).subspan(30, 8)),
            7u);
  const auto back = decode(bytes);
  EXPECT_EQ(back.tag, c.tag);
  EXPECT_EQ(back.values, c.values);
  EXPECT_EQ(back.raw, c.raw);
  EXPECT_EQ(back.name, c.name);
}

TEST(WireCodec, EveryPrefixTruncationThrows) {
  const auto bytes = encode(seeded_composite());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(decode(std::span(bytes).first(n)), WireError)
        << "prefix of " << n << " bytes decoded";
  }
  auto longer = bytes;
  longer.push_back(std::byte{0});
  EXPECT_THROW(decode(longer), WireError);
}

TEST(WireCodec, GetCountRejectsAnOversizedCountBeforeAllocating) {
  // A count that fits is returned; one the remaining bytes cannot hold
  // throws WireError.  Sized first, a 2^61-element vector would have
  // thrown std::length_error or std::bad_alloc instead.
  mp::WireWriter w;
  w.put<std::uint64_t>(2);
  w.put_raw<double>(std::vector<double>{1.0, 2.0});
  {
    mp::WireReader r(w.bytes());
    EXPECT_EQ(r.get_count(sizeof(double)), 2u);
  }
  {
    mp::WireReader r(w.bytes());
    EXPECT_THROW(r.get_count(sizeof(double) + 1), WireError);
  }
  mp::WireWriter huge;
  huge.put<std::uint64_t>(std::uint64_t{1} << 61);
  huge.put<double>(0.0);
  {
    mp::WireReader r(huge.bytes());
    EXPECT_THROW(r.get_count(1), WireError);
  }
  {
    mp::WireReader r(huge.bytes());
    EXPECT_THROW(r.get_vec<double>(), WireError);
  }
  {
    mp::WireReader r(huge.bytes());
    EXPECT_THROW(r.get_string(), WireError);
  }
}

// ------------------------------------------------------ sketch bytes ---

clouds::QuantileSketch seeded_sketch(std::uint64_t seed) {
  clouds::QuantileSketch s(16);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 300; ++i) {
    const auto v = static_cast<std::int64_t>(rng() % 20001) - 10000;
    s.add(static_cast<float>(v) / 8.0f);
  }
  return s;
}

TEST(WireFormat, QuantileSketchBytesArePinned) {
  const auto bytes = seeded_sketch(41).serialize();
  expect_pinned("sketch.bin", bytes);
  mp::WireReader r(bytes);
  const auto back = clouds::QuantileSketch::deserialize(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.serialize(), bytes);
}

// -------------------------------------------------------- manifest ---

TEST(WireFormat, CheckpointManifestBytesArePinned) {
  io::ScratchArena arena("wire_format_manifest", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  io::LocalDisk disk(arena.rank_dir(0), &cost, &clock);
  fault::CheckpointStore store(disk);
  std::vector<fault::CheckpointBlob> blobs(2);
  blobs[0].name = "alpha";
  blobs[1].name = "state";
  std::mt19937_64 rng(5);
  blobs[0].bytes.resize(5);
  blobs[1].bytes.resize(3);
  for (auto& blob : blobs) {
    for (auto& b : blob.bytes) b = static_cast<std::byte>(rng() & 0xff);
  }
  store.write(3, blobs);
  const auto manifest = disk.read_file<std::byte>("pdc.ckpt.v3.manifest");
  expect_pinned("manifest.bin", manifest);
  EXPECT_EQ(store.valid_versions(), std::vector<std::uint64_t>{3});
  EXPECT_EQ(store.blob_names(3),
            (std::vector<std::string>{"alpha", "state"}));
}

// ----------------------------------------- CloudsProblem state blobs ---

std::vector<Record> agrawal_records(std::size_t n, std::uint64_t seed) {
  data::AgrawalGenerator gen({.function = 2, .seed = seed});
  return gen.make_range(0, n);
}

pclouds::PcloudsConfig problem_cfg(pclouds::BoundarySource boundaries) {
  pclouds::PcloudsConfig cfg;
  cfg.clouds.method = clouds::SplitMethod::kSSE;
  cfg.clouds.q_root = 6;
  cfg.memory_bytes = 1 << 20;
  cfg.boundaries = boundaries;
  cfg.sketch_k = 8;
  return cfg;
}

/// A problem whose state covers every section of the blob: the root's
/// context (filled by one statistics pass) and a solved small subtree.
pclouds::CloudsProblem seeded_problem(const pclouds::PcloudsConfig& cfg,
                                      const std::vector<Record>& records,
                                      const std::vector<Record>& sample,
                                      std::vector<std::byte>* root_stats) {
  pclouds::CloudsProblem problem(cfg, records.size(), sample,
                                 clouds::CostHooks{}, nullptr);
  dc::Task root;
  root.global_n = records.size();
  const io::RecordScan<Record> scan{std::span<const Record>(records)};
  *root_stats = problem.local_stats(scan, root);
  dc::Task small;
  small.id = 1;
  small.depth = 2;
  small.global_n = 40;
  problem.solve_sequential(
      small, std::vector<Record>(records.begin(), records.begin() + 40));
  return problem;
}

TEST(WireFormat, SampleModeProblemStateBytesArePinned) {
  const auto records = agrawal_records(80, 17);
  const std::vector<Record> sample(records.begin(), records.begin() + 8);
  const auto cfg = problem_cfg(pclouds::BoundarySource::kSample);
  std::vector<std::byte> stats;
  const auto problem = seeded_problem(cfg, records, sample, &stats);
  const auto blob = problem.export_state();
  expect_pinned("problem_sample.bin", blob);
  pclouds::CloudsProblem fresh(cfg, records.size(), sample,
                               clouds::CostHooks{}, nullptr);
  fresh.restore_state(blob);
  EXPECT_EQ(fresh.export_state(), blob);
}

TEST(WireFormat, SketchModeProblemStateBytesArePinned) {
  const auto records = agrawal_records(80, 19);
  const auto cfg = problem_cfg(pclouds::BoundarySource::kSketch);
  std::vector<std::byte> stats;
  const auto problem = seeded_problem(cfg, records, {}, &stats);
  // local_stats in sketch mode returns the sketch blob the driver combines.
  expect_pinned("sketch_stats.bin", stats);
  const auto blob = problem.export_state();
  expect_pinned("problem_sketch.bin", blob);
  pclouds::CloudsProblem fresh(cfg, records.size(), {}, clouds::CostHooks{},
                               nullptr);
  fresh.restore_state(blob);
  EXPECT_EQ(fresh.export_state(), blob);
}

// ---------------------------------------------- DcDriver state blob ---

/// Splits a task at the midpoint of its key range until it holds at most
/// 64 keys; stateless, so the snapshot's `problem` blob is empty.
class MidpointProblem final : public dc::DcProblem<std::uint64_t> {
 public:
  std::vector<std::byte> local_stats(const Scan& scan,
                                     const dc::Task&) override {
    Range r;
    scan([&](std::span<const std::uint64_t> blk) {
      for (const std::uint64_t v : blk) {
        r.lo = std::min(r.lo, v);
        r.hi = std::max(r.hi, v);
      }
    });
    return mp::to_bytes(r);
  }
  std::vector<std::byte> combine(std::vector<std::byte> a,
                                 const std::vector<std::byte>& b) override {
    auto ra = mp::value_from_bytes<Range>(a);
    const auto rb = mp::value_from_bytes<Range>(b);
    ra.lo = std::min(ra.lo, rb.lo);
    ra.hi = std::max(ra.hi, rb.hi);
    return mp::to_bytes(ra);
  }
  std::optional<Router> decide(mp::Comm&, const std::vector<std::byte>& blob,
                               const Scan&, const dc::Task& task) override {
    const auto r = mp::value_from_bytes<Range>(blob);
    if (task.global_n <= 64 || r.lo == r.hi) return std::nullopt;
    const std::uint64_t mid = r.lo + (r.hi - r.lo) / 2;
    return Router{[mid](std::span<const std::uint64_t> blk,
                        std::span<std::uint8_t> child) {
      for (std::size_t i = 0; i < blk.size(); ++i) {
        child[i] = blk[i] <= mid ? 0 : 1;
      }
    }};
  }
  void solve_sequential(const dc::Task&, std::vector<std::uint64_t>) override {}

 private:
  struct Range {
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
  };
};

TEST(WireFormat, DriverStateBytesArePinned) {
  io::ScratchArena arena("wire_format_driver", 1);
  std::vector<std::byte> state;
  std::uint64_t version = 0;
  mp::Runtime rt(1);
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(0), &comm.cost(), &comm.clock());
    std::vector<std::uint64_t> keys(600);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i * 2654435761u % 1000;
    }
    disk.write_file<std::uint64_t>("root.dat", keys);
    dc::DcConfig cfg;
    cfg.strategy = dc::Strategy::kMixed;
    cfg.small_threshold = 100;
    cfg.memory_bytes = 1 << 14;
    cfg.checkpoint_every = 2;
    dc::DcDriver<std::uint64_t> driver(cfg, disk);
    MidpointProblem problem;
    driver.run(comm, problem, "root.dat");
    fault::CheckpointStore store(disk);
    const auto valid = store.valid_versions();
    ASSERT_FALSE(valid.empty());
    version = valid.back();
    state = store.read_blob(version, "state");
  });
  EXPECT_EQ(version, 7u);
  expect_pinned("driver_state.bin", state);
}

}  // namespace
}  // namespace pdc
