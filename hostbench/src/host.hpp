#pragma once
// Host-side instruments of the benchmark: wall and CPU clocks, getrusage
// deltas, peak RSS, quantiles, the benchmark's own span log and the metric
// table every workload fills.  Nothing here touches the program's modeled
// clocks; these read the real machine.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Usage {
  double cpu_s = 0.0;  ///< user + sys
  long vol_switches = 0;
  long invol_switches = 0;

  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, vol_switches - o.vol_switches,
            invol_switches - o.invol_switches};
  }
};

/// getrusage for the whole process (RUSAGE_SELF) or the calling thread
/// (RUSAGE_THREAD).
inline Usage usage_now(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw};
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next peak_rss_mb() covers only what runs after this call.  Where
/// /proc/self/clear_refs is not writable the mark is left as it is.
inline void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM from /proc/self/status in MiB (0 if unreadable).
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One wall/CPU span the benchmark recorded around a call into a layer.
/// `track` is the rank (or -1 for the driving thread); times are seconds
/// on the steady clock relative to the log's origin.
struct Span {
  std::string name;
  std::string layer;
  int track = -1;
  double start_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// In-memory span log, written out once when the benchmark ends.
class SpanLog {
 public:
  SpanLog() : origin_(wall_now()) {}

  double origin() const { return origin_; }

  void add(Span s) {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  /// Chrome trace_event JSON: one "X" event per span, pid 1, tid = track
  /// + 1 (tid 0 is the driving thread), with the span's CPU time as an arg.
  bool write_json(const std::string& path) const;

 private:
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times [construction, close()) in wall and thread-CPU seconds and hands
/// the span to `log` (if any).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer, int track)
      : log_(log),
        name_(std::move(name)),
        layer_(std::move(layer)),
        track_(track),
        wall0_(wall_now()),
        cpu0_(thread_cpu_now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  /// Ends the span; returns its wall seconds.  Idempotent.
  double close() {
    if (!open_) return wall_;
    open_ = false;
    wall_ = wall_now() - wall0_;
    if (log_) {
      log_->add({name_, layer_, track_, wall0_ - log_->origin(), wall_,
                 thread_cpu_now() - cpu0_});
    }
    return wall_;
  }

 private:
  SpanLog* log_;
  std::string name_;
  std::string layer_;
  int track_;
  double wall0_;
  double cpu0_;
  bool open_ = true;
  double wall_ = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metric table in insertion order; set() on an existing name
/// replaces its value.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }
  /// The value of `name`, or 0 if it was never set.
  double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

 private:
  std::vector<Metric> items_;
};

}  // namespace hostbench
