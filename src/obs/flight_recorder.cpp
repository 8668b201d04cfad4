#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

namespace gflink::obs {

Json FlightEvent::to_json() const {
  Json j = Json::object();
  j["at_ns"] = static_cast<std::int64_t>(at);
  j["node"] = node;
  j["kind"] = kind;
  if (!detail.empty()) j["detail"] = detail;
  return j;
}

void FlightRecorder::on_span_closed(const CausalSpan& span) {
  GFLINK_CHECK_MSG(span.node >= -1, "flight recorder node ids start at -1 (master)");
  ++spans_seen_;
  const auto index = static_cast<std::size_t>(span.node + 1);
  if (index >= spans_.size()) spans_.resize(index + 1);
  SpanRing& ring = spans_[index];
  if (!ring.seen) {
    ring.seen = true;
    ring.slots.reserve(capacity_);  // one allocation per ring, never regrown
  }
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(span);
  } else if (capacity_ > 0) {
    ring.slots[ring.oldest] = span;
    ring.oldest = (ring.oldest + 1) % capacity_;
  }
}

void FlightRecorder::note_event(sim::Time at, int node, std::string kind, std::string detail) {
  ++events_seen_;
  auto& ring = events_[node];
  ring.push_back(FlightEvent{at, node, std::move(kind), std::move(detail)});
  while (ring.size() > capacity_) ring.pop_front();
}

void FlightRecorder::note_fault(sim::Time at, int node, std::string kind, std::string detail) {
  note_event(at, node, std::move(kind), std::move(detail));
  ++faults_;
  if (faults_ == 1 && !dump_path_.empty()) dump_now(dump_path_);
}

bool FlightRecorder::dump_now(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << "\n";
  if (!out) return false;
  ++dumps_;
  return true;
}

Json FlightRecorder::to_json() const {
  Json root = Json::object();
  root["schema"] = "gflink.flight_dump/v1";
  root["ring_capacity"] = static_cast<std::uint64_t>(capacity_);
  root["spans_seen"] = spans_seen_;
  root["events_seen"] = events_seen_;
  root["faults"] = faults_;
  Json nodes = Json::array();
  // Walk the union of node ids in order: the rings that saw a span (spans_
  // is indexed by node + 1) and the event rings (events_ is a std::map).
  std::size_t si = 0;
  while (si < spans_.size() && !spans_[si].seen) ++si;
  auto ei = events_.begin();
  while (si < spans_.size() || ei != events_.end()) {
    const int ring_node = static_cast<int>(si) - 1;
    int node;
    if (si == spans_.size()) node = ei->first;
    else if (ei == events_.end()) node = ring_node;
    else node = std::min(ring_node, ei->first);
    Json entry = Json::object();
    entry["node"] = node;
    Json spans = Json::array();
    if (si < spans_.size() && ring_node == node) {
      const SpanRing& ring = spans_[si];
      const std::size_t n = ring.slots.size();
      for (std::size_t k = 0; k < n; ++k) {
        spans.push_back(ring.slots[(ring.oldest + k) % n].to_json());  // oldest first
      }
      do ++si;
      while (si < spans_.size() && !spans_[si].seen);
    }
    entry["spans"] = std::move(spans);
    Json events = Json::array();
    if (ei != events_.end() && ei->first == node) {
      for (const auto& e : ei->second) events.push_back(e.to_json());
      ++ei;
    }
    entry["events"] = std::move(events);
    nodes.push_back(std::move(entry));
  }
  root["nodes"] = std::move(nodes);
  return root;
}

void FlightRecorder::export_metrics(MetricsRegistry& m) const {
  m.counter("flight_spans_total").inc(static_cast<double>(spans_seen_));
  m.counter("flight_events_total").inc(static_cast<double>(events_seen_));
  m.counter("flight_faults_total").inc(static_cast<double>(faults_));
  m.counter("flight_dumps_total").inc(static_cast<double>(dumps_));
}

void FlightRecorder::clear() {
  spans_.clear();
  events_.clear();
  spans_seen_ = events_seen_ = faults_ = dumps_ = 0;
}

}  // namespace gflink::obs
