#include "obs/trace.hpp"

#include <stdexcept>

#include "obs/json.hpp"

namespace pdc::obs {

Tracer::Tracer(int nranks) {
  if (nranks < 1) throw std::invalid_argument("Tracer: nranks must be >= 1");
  tracks_.resize(static_cast<std::size_t>(nranks));
}

Tracer::Track& Tracer::track(int rank) {
  return tracks_.at(static_cast<std::size_t>(rank));
}

const std::vector<TraceEvent>& Tracer::events(int rank) const {
  return tracks_.at(static_cast<std::size_t>(rank)).events;
}

MetricsRegistry& Tracer::metrics(int rank) {
  return tracks_.at(static_cast<std::size_t>(rank)).metrics;
}

const MetricsRegistry& Tracer::metrics(int rank) const {
  return tracks_.at(static_cast<std::size_t>(rank)).metrics;
}

MetricsRegistry Tracer::merged_metrics() const {
  MetricsRegistry merged;
  for (const auto& t : tracks_) merged.merge(t.metrics);
  return merged;
}

void RankTracer::do_complete(std::string_view name, std::string_view cat,
                             double begin_s, double end_s, std::uint64_t bytes,
                             std::uint64_t n) const {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kComplete;
  ev.name = name;
  ev.cat = cat;
  ev.begin_s = begin_s;
  ev.end_s = end_s;
  ev.bytes = bytes;
  ev.n = n;
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_complete_event(TraceEvent ev) const {
  ev.kind = TraceEvent::Kind::kComplete;
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_instant(std::string_view name, std::string_view cat) const {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.begin_s = now();
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_counter(std::string_view name, double value) const {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kCounter;
  ev.name = name;
  ev.begin_s = now();
  ev.value = value;
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_count(std::string_view name, std::uint64_t delta) const {
  tracer_->track(rank_).metrics.counter(std::string(name)).add(delta);
}

void RankTracer::do_observe(std::string_view name, double value) const {
  tracer_->track(rank_).metrics.histogram(std::string(name)).observe(value);
}

void RankTracer::do_gauge(std::string_view name, double value) const {
  tracer_->track(rank_).metrics.gauge(std::string(name)).set(value);
}

namespace {

/// Modeled seconds -> trace microseconds (Chrome's native unit).
double trace_us(double seconds) { return seconds * 1e6; }

Json event_json(const TraceEvent& ev, int rank) {
  switch (ev.kind) {
    case TraceEvent::Kind::kComplete: {
      Json doc = Json::object({{"name", ev.name},
                               {"cat", ev.cat},
                               {"ph", "X"},
                               {"pid", 0},
                               {"tid", rank},
                               {"ts", trace_us(ev.begin_s)},
                               {"dur", trace_us(ev.end_s - ev.begin_s)}});
      Json args = Json::object();
      const auto arg = [&args](const char* key, std::uint64_t v) {
        if (v != kNoArg) args.set(key, v);
      };
      arg("bytes", ev.bytes);
      arg("n", ev.n);
      arg("comm", ev.comm);
      arg("seq", ev.seq);
      arg("depth", ev.depth);
      if (args.size() != 0) doc.set("args", std::move(args));
      return doc;
    }
    case TraceEvent::Kind::kInstant:
      return Json::object({{"name", ev.name},
                           {"cat", ev.cat},
                           {"ph", "i"},
                           {"s", "t"},
                           {"pid", 0},
                           {"tid", rank},
                           {"ts", trace_us(ev.begin_s)}});
    case TraceEvent::Kind::kCounter:
      return Json::object({{"name", ev.name},
                           {"ph", "C"},
                           {"pid", 0},
                           {"tid", rank},
                           {"ts", trace_us(ev.begin_s)},
                           {"args", Json::object({{"value", ev.value}})}});
  }
  return Json();
}

}  // namespace

std::string Tracer::chrome_json(
    const std::vector<std::pair<int, TraceEvent>>* extra) const {
  // Events are built, dumped and dropped one at a time, so export memory
  // stays proportional to the output text rather than to a whole tree.
  std::string out = R"({"traceEvents":[)";
  const auto emit = [&out](const Json& ev) {
    if (out.back() != '[') out += ",\n";
    ev.dump_to(out);
  };
  for (int r = 0; r < nranks(); ++r) {
    // Name the track so Perfetto shows "rank N" instead of a bare tid.
    emit(Json::object(
        {{"name", "thread_name"},
         {"ph", "M"},
         {"pid", 0},
         {"tid", r},
         {"args", Json::object({{"name", "rank " + std::to_string(r)}})}}));
    for (const auto& ev : tracks_[static_cast<std::size_t>(r)].events) {
      emit(event_json(ev, r));
    }
    if (extra) {
      for (const auto& [rank, ev] : *extra) {
        if (rank == r) emit(event_json(ev, r));
      }
    }
  }
  out += R"(],"displayTimeUnit":"ms"})";
  return out;
}

void Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<int, TraceEvent>>* extra) const {
  write_file(path, chrome_json(extra));
}

}  // namespace pdc::obs
