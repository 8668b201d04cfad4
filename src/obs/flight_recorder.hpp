// Always-on bounded flight recorder: per-node ring buffers of the most
// recent completed spans and notable events, dumped to JSON when a fault
// fires or a run aborts. The rings are small and always active (unlike
// span retention, which is opt-in), so post-mortems of untraced runs still
// see the work surrounding the failure.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace gflink::obs {

struct FlightEvent {
  sim::Time at = 0;
  int node = -1;       // -1 = master
  std::string kind;    // e.g. "shuffle_fault", "worker_lost", "oom_retry"
  std::string detail;  // free-form context

  Json to_json() const;
};

class FlightRecorder {
 public:
  /// Per-node ring depth, for spans and events independently.
  explicit FlightRecorder(std::size_t ring_capacity = 256) : capacity_(ring_capacity) {}

  std::size_t capacity() const { return capacity_; }

  /// When set, the first note_fault() writes a dump here automatically
  /// (later faults only count — the interesting state is around the first).
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  /// SpanStore streams every completed span in; the ring keeps the most
  /// recent `capacity` per node. Node ids must be >= -1.
  void on_span_closed(const CausalSpan& span);

  /// Record a notable event (kept in the node's event ring).
  void note_event(sim::Time at, int node, std::string kind, std::string detail);

  /// Record a fault event; if a dump path is configured, the first fault
  /// snapshots the rings to it.
  void note_fault(sim::Time at, int node, std::string kind, std::string detail);

  /// Snapshot the rings to a JSON file; false on I/O failure.
  bool dump_now(const std::string& path);

  std::uint64_t faults() const { return faults_; }
  std::uint64_t dumps() const { return dumps_; }
  std::uint64_t events_seen() const { return events_seen_; }

  /// {"schema": "gflink.flight_dump/v1", "nodes": [{"node", "spans",
  ///  "events"}, ...]} — nodes in id order, rings oldest-first.
  Json to_json() const;

  /// flight_spans_total / flight_events_total / flight_faults_total /
  /// flight_dumps_total counters.
  void export_metrics(MetricsRegistry& m) const;

  void clear();

 private:
  /// One node's most recent spans in a fixed-capacity ring: slots fill up
  /// to the capacity, then each new span is copy-assigned over the oldest
  /// slot, reusing that slot's string and note buffers.
  struct SpanRing {
    bool seen = false;        // the node closed a span (dumped even if capacity is 0)
    std::size_t oldest = 0;   // slot the next span overwrites once full
    std::vector<CausalSpan> slots;
  };

  const std::size_t capacity_;
  std::string dump_path_;
  std::vector<SpanRing> spans_;  // per-node rings, index node + 1
  std::map<int, std::deque<FlightEvent>> events_;
  std::uint64_t spans_seen_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t dumps_ = 0;
};

}  // namespace gflink::obs
