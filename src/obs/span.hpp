// Causal span tracing: the job-wide dependency DAG behind the flat lanes.
//
// Where sim::Tracer records independent per-lane intervals (good for
// utilization), the SpanStore records *causal* spans with parent/child
// links: every job gets a trace id, and each engine stage, task, shuffle
// session, per-block send, DFS spill and per-GWork H2D/kernel/D2H chunk
// opens a span under its causing parent, so the whole run forms one DAG.
// On top of the DAG live the analyses that explain where time went:
//
//  * extract_critical_path() walks the DAG backwards from each root span
//    ("last finisher" rule) and attributes every instant of the root's
//    duration to exactly one category, so the per-category breakdown sums
//    to the makespan exactly;
//  * find_stragglers() flags spans whose duration exceeds the p95 of their
//    name peer group and names the resource the straggler waited on.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gflink::obs {

class FlightRecorder;

/// Span identity. 0 means "no span": APIs taking a parent treat 0 as
/// "root" and data-plane call sites treat a 0 SpanLink as "don't record".
using SpanId = std::uint64_t;

/// The fixed taxonomy every span is attributed to. Control covers
/// scheduling/deploy/CPU compute (the paper's JVM-side work); H2D/Kernel/
/// D2H are the GPU pipeline stages; Shuffle is network block movement;
/// Spill is DFS spill/unspill I/O; Wait is time blocked on a resource
/// (task slot, pipe queue, transfer credit).
enum class SpanCategory : std::uint8_t { Control, H2D, Kernel, D2H, Shuffle, Spill, Wait };
inline constexpr std::size_t kSpanCategories = 7;

/// Lower-case category name ("control", "h2d", ...), stable for reports.
const char* span_category_name(SpanCategory c);

/// Parent link handed down through data-plane call sites (Pipe::transfer,
/// Gdfs reads/writes): which span caused the transfer and what category
/// the resulting child span carries. Default (parent 0) records nothing.
struct SpanLink {
  SpanId parent = 0;
  SpanCategory category = SpanCategory::Control;
};

struct CausalSpan {
  SpanId id = 0;
  SpanId parent = 0;           // 0 = root of a trace
  std::uint64_t trace_id = 0;  // job id; inherited from the parent span
  std::string name;            // peer-group key, e.g. "task:ranks" — no per-span ids
  SpanCategory category = SpanCategory::Control;
  sim::Time begin = 0;
  sim::Time end = 0;
  std::string lane;  // display lane for trace viewers, e.g. "node3/shuffle"
  int node = -1;     // owning node (flight-recorder ring key); -1 = master
  std::vector<std::pair<std::string, std::string>> notes;  // annotations

  sim::Duration duration() const { return end - begin; }
  Json to_json() const;
};

class SpanStore {
 public:
  SpanStore() = default;

  /// When retaining, closed spans are kept for DAG analysis/export; when
  /// not (the default), they only feed the flight-recorder ring and the
  /// aggregate counters, keeping memory bounded on untraced runs.
  void set_retain(bool retain) { retain_ = retain; }
  bool retain() const { return retain_; }

  /// Completed spans always stream into `flight` (may be nullptr).
  void attach_flight_recorder(FlightRecorder* flight) { flight_ = flight; }

  /// Open a span. The trace id is inherited from the parent; for roots
  /// (parent 0) pass the job id via `trace_id`. Times are explicit so the
  /// store has no Simulation dependency (tests build DAGs by hand).
  SpanId open(std::string name, SpanCategory category, SpanId parent, sim::Time begin,
              std::string lane = {}, int node = -1, std::uint64_t trace_id = 0);

  /// Attach a key/value note to an open span (no-op on id 0 / closed ids).
  void annotate(SpanId id, std::string key, std::string value);

  void close(SpanId id, sim::Time end);

  /// One-shot open+close for spans whose extent is known at record time
  /// (block transfers, waits). Returns the id so callers may parent to it.
  SpanId record(std::string name, SpanCategory category, SpanId parent, sim::Time begin,
                sim::Time end, std::string lane = {}, int node = -1);

  /// Closed spans, in close order (deterministic). Empty unless retaining.
  const std::vector<CausalSpan>& spans() const { return closed_; }
  std::uint64_t recorded() const { return recorded_; }
  bool empty() const { return closed_.empty(); }
  void clear();

  /// Aggregate counters: trace_spans_total and per-category
  /// trace_span_ns_total{category=...}.
  void export_metrics(MetricsRegistry& m) const;

 private:
  /// A new span with the next id. A root takes `trace_id`; a child
  /// inherits its parent's if the parent is still open or retained, else 0.
  CausalSpan start(std::string name, SpanCategory category, SpanId parent, sim::Time begin,
                   std::string lane, int node, std::uint64_t trace_id);
  /// Close path shared by close() and record(): counters, flight recorder,
  /// retention.
  void finish(CausalSpan&& s);

  bool retain_ = false;
  FlightRecorder* flight_ = nullptr;
  SpanId next_id_ = 1;
  std::uint64_t recorded_ = 0;
  std::array<sim::Duration, kSpanCategories> category_ns_{};
  std::unordered_map<SpanId, CausalSpan> open_;
  std::vector<CausalSpan> closed_;
};

// ---- Critical path ---------------------------------------------------------

/// One hop of the critical path: the interval [begin, end] was attributed
/// to this span's own category (its children already accounted for).
struct CriticalPathSegment {
  SpanId span = 0;
  std::string name;
  SpanCategory category = SpanCategory::Control;
  sim::Time begin = 0;
  sim::Time end = 0;
};

struct CriticalPath {
  sim::Duration total = 0;  // sum of root-span durations == category sum
  std::array<sim::Duration, kSpanCategories> by_category{};
  std::vector<CriticalPathSegment> segments;  // chronological

  Json to_json() const;
};

/// Walk the DAG of closed spans backwards from each root ("last finisher"
/// rule): at every instant the critical path follows the child that
/// finishes last; gaps not covered by any child are the parent's own time.
/// Every instant of each root's duration lands in exactly one category, so
/// by_category sums to `total` exactly.
CriticalPath extract_critical_path(const SpanStore& store);

/// Gauge export: trace_critical_path_seconds (total and per category).
void export_critical_path_metrics(const CriticalPath& cp, MetricsRegistry& m);

// ---- Straggler attribution -------------------------------------------------

/// Nearest-rank p95 over a peer group: sort ascending and take the value at
/// index floor(0.95 * (n - 1)). This is the single definition of "the peer
/// group's p95" — find_stragglers() (post-hoc span report) and the live
/// telemetry straggler detector both call it, so an offline straggler and a
/// live straggler agree on what "slower than the peers" means. Empty input
/// returns a default-constructed T.
template <typename T>
T nearest_rank_p95(std::vector<T> values) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(0.95 * static_cast<double>(values.size() - 1));
  return values[rank];
}

struct Straggler {
  SpanId span = 0;
  std::string name;  // peer group
  std::string lane;
  sim::Duration duration = 0;
  sim::Duration p95 = 0;        // peer-group p95 the span exceeded
  std::string waited_on;        // longest Wait descendant ("" if none)

  Json to_json() const;
};

/// Group closed spans by name; within groups of at least `min_group`
/// members, flag spans strictly slower than the group's p95 duration
/// (nearest-rank over the sorted peer durations). `waited_on` names the
/// straggler's longest Wait-category descendant — the resource it was
/// actually blocked on.
std::vector<Straggler> find_stragglers(const SpanStore& store, std::size_t min_group = 4);

/// Gauge export: trace_stragglers_total.
void export_straggler_metrics(const std::vector<Straggler>& stragglers, MetricsRegistry& m);

}  // namespace gflink::obs
