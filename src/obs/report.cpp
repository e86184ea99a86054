#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/json.hpp"

namespace pdc::obs {

double RunReport::parallel_time_s() const {
  double t = 0.0;
  for (const auto& r : ranks) t = std::max(t, r.clock.total());
  return t;
}

double RunReport::balance() const {
  if (ranks.empty()) return 1.0;
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (const auto& r : ranks) {
    const double busy = r.clock.compute_s + r.clock.comm_s + r.clock.io_s;
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  if (max_busy == 0.0) return 1.0;
  return sum_busy / (static_cast<double>(ranks.size()) * max_busy);
}

io::IoStats RunReport::total_io() const {
  io::IoStats total;
  for (const auto& r : ranks) total += r.io;
  return total;
}

std::string RunReport::to_json() const {
  Json jranks = Json::array();
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const auto& rk = ranks[r];
    jranks.push_back(Json::object({{"rank", r},
                                   {"compute_s", rk.clock.compute_s},
                                   {"comm_s", rk.clock.comm_s},
                                   {"io_s", rk.clock.io_s},
                                   {"io_hidden_s", rk.clock.io_hidden_s},
                                   {"idle_s", rk.clock.idle_s},
                                   {"total_s", rk.clock.total()},
                                   {"read_ops", rk.io.read_ops},
                                   {"write_ops", rk.io.write_ops},
                                   {"bytes_read", rk.io.bytes_read},
                                   {"bytes_written", rk.io.bytes_written}}));
  }
  Json doc = Json::object(
      {{"schema", "pdc.run_report.v1"},
       {"classifier", classifier},
       {"nprocs", nprocs},
       {"records", records},
       {"parallel_time_s", parallel_time_s()},
       {"balance", balance()},
       {"ranks", std::move(jranks)},
       {"tree", Json::object({{"nodes", tree.nodes},
                              {"leaves", tree.leaves},
                              {"depth", tree.depth}})}});
  if (!lockstep_divergence.empty()) {
    Json jlock = Json::array();
    for (const auto& e : lockstep_divergence) {
      char site_hex[17];
      std::snprintf(site_hex, sizeof(site_hex), "%016llx",
                    static_cast<unsigned long long>(e.site));
      jlock.push_back(Json::object({{"rank", e.rank},
                                    {"global_rank", e.global_rank},
                                    {"site", site_hex},
                                    {"seq", e.seq},
                                    {"prim", e.prim},
                                    {"where", e.where}}));
    }
    doc.set("lockstep_divergence", std::move(jlock));
  }
  if (accuracy >= 0.0) doc.set("accuracy", accuracy);

  Json counters = Json::object();
  for (const auto& [name, c] : metrics.counters()) counters.set(name, c.value);
  Json gauges = Json::object();
  for (const auto& [name, g] : metrics.gauges()) gauges.set(name, g.value);
  Json histograms = Json::object();
  for (const auto& [name, h] : metrics.histograms()) {
    histograms.set(name, Json::object({{"count", h.count},
                                       {"sum", h.sum},
                                       {"min", h.min},
                                       {"max", h.max},
                                       {"mean", h.mean()}}));
  }
  doc.set("metrics", Json::object({{"counters", std::move(counters)},
                                   {"gauges", std::move(gauges)},
                                   {"histograms", std::move(histograms)}}));
  return doc.dump();
}

void RunReport::write_json(const std::string& path) const {
  write_file(path, to_json());
}

RunReport RunReport::from_json(std::string_view text) {
  const Json doc = Json::parse(text);
  if (const Json* schema = doc.find("schema");
      !schema || schema->as_string() != "pdc.run_report.v1") {
    throw std::runtime_error("RunReport: unknown schema");
  }

  RunReport out;
  out.classifier = doc.at("classifier").as_string();
  out.nprocs = static_cast<int>(doc.at("nprocs").as_int());
  out.records = doc.at("records").as_uint();

  for (const auto& rj : doc.at("ranks").items()) {
    Rank rk;
    rk.clock.compute_s = rj.at("compute_s").as_number();
    rk.clock.comm_s = rj.at("comm_s").as_number();
    rk.clock.io_s = rj.at("io_s").as_number();
    // Reports written before the async pipeline lack io_hidden_s.
    if (const Json* hidden = rj.find("io_hidden_s")) {
      rk.clock.io_hidden_s = hidden->as_number();
    }
    rk.clock.idle_s = rj.at("idle_s").as_number();
    rk.io.read_ops = rj.at("read_ops").as_uint();
    rk.io.write_ops = rj.at("write_ops").as_uint();
    rk.io.bytes_read = rj.at("bytes_read").as_uint();
    rk.io.bytes_written = rj.at("bytes_written").as_uint();
    out.ranks.push_back(rk);
  }

  const Json& tj = doc.at("tree");
  out.tree.nodes = tj.at("nodes").as_uint();
  out.tree.leaves = tj.at("leaves").as_uint();
  out.tree.depth = static_cast<std::int32_t>(tj.at("depth").as_int());

  if (const Json* lock = doc.find("lockstep_divergence")) {
    for (const auto& ej : lock->items()) {
      LockstepRank e;
      e.rank = static_cast<int>(ej.at("rank").as_int());
      e.global_rank = static_cast<int>(ej.at("global_rank").as_int());
      e.site = std::strtoull(ej.at("site").as_string().c_str(), nullptr, 16);
      e.seq = ej.at("seq").as_uint();
      e.prim = ej.at("prim").as_string();
      e.where = ej.at("where").as_string();
      out.lockstep_divergence.push_back(std::move(e));
    }
  }

  if (const Json* acc = doc.find("accuracy")) {
    out.accuracy = acc->as_number();
  }

  const Json& mj = doc.at("metrics");
  for (const auto& [name, v] : mj.at("counters").members()) {
    out.metrics.counter(name).value = v.as_uint();
  }
  for (const auto& [name, v] : mj.at("gauges").members()) {
    out.metrics.gauge(name).value = v.as_number();
  }
  for (const auto& [name, v] : mj.at("histograms").members()) {
    HistogramSummary& h = out.metrics.histogram(name);
    h.count = v.at("count").as_uint();
    h.sum = v.at("sum").as_number();
    // An empty histogram serializes min/max (±inf) as null.
    if (v.at("min").is_number()) h.min = v.at("min").as_number();
    if (v.at("max").is_number()) h.max = v.at("max").as_number();
  }
  return out;
}

}  // namespace pdc::obs
