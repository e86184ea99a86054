// hostbench: the repository's host-cost benchmark.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--corrupt label|fingerprint] [--out <dir>]
//
// Generates the workload's inputs from the seed, runs it in this process,
// checks every output, prints each metric by name and unit, and ends with
// one JSON line {"correct", "attempted", "failed", "metrics"}.  --trace 0
// prints the end-to-end metrics of an untraced run; --trace 1 prints the
// per-layer metrics of a traced run.  Exit status 0 iff every check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"

namespace hostbench {

std::uint64_t fingerprint(const pdc::clouds::DecisionTree& tree) {
  const auto nodes = tree.serialize();
  return fnv1a(nodes.data(), nodes.size() * sizeof(nodes[0]));
}

bool SpanLog::write_json(const std::string& path) const {
  using pdc::obs::Json;
  Json events = Json::make_array();
  for (const Span& s : spans()) {
    Json ev = Json::make_object();
    ev.set("ph", Json::make_string("X"));
    ev.set("pid", Json::make_number(1));
    ev.set("tid", Json::make_number(s.track + 1));
    ev.set("name", Json::make_string(s.name));
    ev.set("cat", Json::make_string(s.layer));
    ev.set("ts", Json::make_number(s.start_s * 1e6));
    ev.set("dur", Json::make_number(s.wall_s * 1e6));
    Json args = Json::make_object();
    args.set("cpu_us", Json::make_number(s.cpu_s * 1e6));
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  Json doc = Json::make_object();
  doc.set("traceEvents", std::move(events));
  std::ofstream f(path);
  f << doc.dump() << "\n";
  return static_cast<bool>(f);
}

namespace {

// Record counts are scaled down from the paper-sized runs so that every
// timed phase holds several trainings (README.md, "Workloads").
const std::vector<Spec> kWorkloads = {
    {"train-seq-sync", 150'000, false},
    {"train-seq-pipelined", 150'000, true},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] "
               "[--corrupt label|fingerprint] [--out <dir>]\nworkloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.out_dir = ".bench_build/hostbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--scale") {
      opt.scale = std::atof(val.c_str());
    } else if (key == "--corrupt") {
      opt.corrupt = val;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (!(opt.seconds > 0) || !(opt.scale > 0)) usage("bad --seconds/--scale");
  if (!opt.corrupt.empty() && opt.corrupt != "label" &&
      opt.corrupt != "fingerprint") {
    usage("bad --corrupt");
  }
  return opt;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  const Options opt = parse(argc, argv);
  const Spec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == opt.workload) spec = &w;
  }
  if (!spec) usage(("unknown workload '" + opt.workload + "'").c_str());
  std::filesystem::create_directories(opt.out_dir);
  // Scratch disks (io::ScratchArena) go under --out unless the caller
  // chose a root.
  ::setenv("PDC_SCRATCH_ROOT", opt.out_dir.c_str(), 0);

  SpanLog log;
  Outcome res;
  try {
    res = run_train(*spec, opt, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s failed: %s\n", spec->name.c_str(),
                 e.what());
    return 1;
  }

  const Metrics& out = res.metrics;
  Ledger& ledger = res.ledger;
  for (const auto& m : out.items()) {
    ledger.check(std::isfinite(m.value), m.name + " is not a finite number");
  }
  std::printf("hostbench %s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& m : out.items()) {
    std::printf("  %-36s %-22s %s\n", m.name.c_str(),
                pdc::obs::json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const auto& m : res.info.items()) {
    std::printf("  %-36s %-22s %s\n", m.name.c_str(),
                pdc::obs::json_number(m.value).c_str(), m.unit.c_str());
  }
  const double error_rate = static_cast<double>(ledger.failed) /
                            static_cast<double>(std::max<std::uint64_t>(1, ledger.attempted));
  std::printf("  %-36s %-22s %s\n", "error_rate", pdc::obs::json_number(error_rate).c_str(),
              "ratio");
  for (const auto& e : ledger.errors) std::printf("  error: %s\n", e.c_str());

  const std::string spans = opt.out_dir + "/spans-" + spec->name + "-seed" +
                            std::to_string(opt.seed) +
                            (opt.trace ? "-traced" : "") + ".json";
  if (!log.write_json(spans)) {
    std::fprintf(stderr, "hostbench: cannot write %s\n", spans.c_str());
  }

  using pdc::obs::Json;
  const bool correct = ledger.failed == 0;
  Json metrics = Json::make_object();
  for (const auto& m : out.items()) {
    Json entry = Json::make_object();
    entry.set("value", Json::make_number(m.value));
    entry.set("unit", Json::make_string(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  Json result = Json::make_object();
  result.set("correct", Json::make_bool(correct));
  result.set("attempted", Json::make_number(static_cast<double>(ledger.attempted)));
  result.set("failed", Json::make_number(static_cast<double>(ledger.failed)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
