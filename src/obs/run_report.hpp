// Machine-readable run reports: one JSON document per bench/sim run.
//
// A RunReport collects the run's configuration, wall and virtual time, a
// metrics snapshot and per-lane utilization rollups, and serializes them
// as the `BENCH_<name>.json` documents that populate the perf trajectory.
#pragma once

#include <map>
#include <string>

#include "sim/time.hpp"
#include "sim/trace.hpp"

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace gflink::obs {

struct RunReport {
  std::string name;                // e.g. "fig5_overview"
  Json config = Json::object();    // free-form run configuration
  double wall_seconds = 0.0;       // host wall-clock of the whole run
  sim::Time virtual_ns = 0;        // simulated time (summed across cases)
  MetricsRegistry metrics;         // accumulated metric snapshot
  std::map<std::string, LaneUtilization> lanes;  // from the last traced run
  Json critical_path;              // CriticalPath::to_json(); Null when untraced
  Json stragglers;                 // array of Straggler::to_json(); Null when untraced
  /// Per-tenant fairness section (schema v3): filled from
  /// service::JobService::fairness_json() on multi-tenant runs, Null
  /// otherwise (single-tenant reports simply omit the key).
  Json tenants;

  /// Record one configuration entry (string/number/bool via Json ctors).
  void set_config(const std::string& key, Json value) { config[key] = std::move(value); }

  /// Capture per-lane utilization rollups from a tracer.
  void capture_lanes(const sim::Tracer& tracer, sim::Time horizon = 0) {
    lanes = lane_utilization(tracer, horizon);
  }

  /// Run the DAG analyses over a retaining span store: fills the
  /// critical_path and stragglers sections and the matching trace_* gauges.
  void capture_spans(const SpanStore& spans);

  Json to_json() const;

  /// Write the pretty-printed JSON document; false on I/O failure.
  bool write(const std::string& path) const;
};

/// Derive the headline GFlink ratios from the raw counters and make sure
/// the keys every report is expected to carry exist even when a run never
/// touched the GPU layer: gpu_stage_busy_ns{stage=h2d|kernel|d2h}, the
/// cache_hit_ratio and locality_hit_ratio gauges.
void add_derived_gflink_metrics(MetricsRegistry& m);

/// Whether `m` holds a GPU or GStream counter (a `gpu_*` or `gstream_*`
/// series). Only then are the ratios add_derived_gflink_metrics derives
/// measured; in a run without either they read 0 for "not applicable".
bool has_gflink_counters(const MetricsRegistry& m);

}  // namespace gflink::obs
