// The unified metrics registry of the observability subsystem.
//
// Components register labeled counters, gauges and histograms by name and
// hold on to the returned handle (node-stable across inserts), so the hot
// path is a single pointer write. The registry snapshots to JSON for run
// reports and merges across runs (bench binaries accumulate one registry
// over many simulated testbeds).
//
// Conventions:
//  * counters are monotonically increasing totals, named `*_total` or with
//    a unit suffix (`*_ns`, `*_bytes`);
//  * gauges are last-write-wins instantaneous values (occupancy, ratios);
//  * histograms are sim::Histogram (fixed linear buckets + under/overflow)
//    reported with p50/p95/p99.
//
// Like every object wired to a Simulation, a registry belongs to one thread
// (docs/ARCHITECTURE.md, "Threading model") and carries no locks.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "sim/stats.hpp"

#include "obs/json.hpp"

namespace gflink::obs {

/// Metric labels, e.g. {{"gpu", "node1.gpu0"}, {"stage", "h2d"}}.
/// std::map keeps the key canonical regardless of insertion order.
using Labels = std::map<std::string, std::string>;

/// A metric's identity: name plus labels.
struct MetricId {
  std::string name;
  Labels labels{};

  bool operator<(const MetricId& other) const {
    if (name != other.name) return name < other.name;
    return labels < other.labels;
  }
  /// Render as `name{k="v",...}` (plain `name` when unlabeled).
  std::string to_string() const;
};

/// Monotonic counter. Components may cache a Counter& and bump it from
/// the hot path.
class Counter {
 public:
  void inc(double v = 1.0) { value_ += v; }
  double value() const { return value_; }
  operator double() const { return value(); }  // ergonomic reads in tests/tools

 private:
  double value_ = 0.0;
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }
  operator double() const { return value(); }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Get-or-create. References stay valid for the registry's lifetime
  /// (map nodes are stable), so components may cache them.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  /// The bucket layout is fixed by the first registration of an id; later
  /// calls must pass the same lo/hi/buckets — a mismatched re-registration
  /// is a GFLINK_CHECK failure (a histogram with a surprising layout is
  /// worse than a crash).
  sim::Histogram& histogram(const std::string& name, double lo, double hi, std::size_t buckets,
                            Labels labels = {});

  /// Convenience increment (creates the counter if needed).
  void inc(const std::string& name, double v = 1.0) { counter(name).inc(v); }

  // ---- Read-side -----------------------------------------------------------

  /// Value of a counter/gauge, or 0 when absent.
  double counter_value(const std::string& name, const Labels& labels = {}) const;
  double gauge_value(const std::string& name, const Labels& labels = {}) const;
  /// Sum of every counter series with this name, across all label sets.
  double counter_sum(const std::string& name) const;
  const sim::Histogram* find_histogram(const std::string& name, const Labels& labels = {}) const;

  const std::map<MetricId, Counter>& counters() const { return counters_; }
  const std::map<MetricId, Gauge>& gauges() const { return gauges_; }
  const std::map<MetricId, sim::Histogram>& histograms() const { return histograms_; }

  /// Fold another registry in: counters add, gauges overwrite (latest
  /// wins), histograms merge bucket-wise (shapes must match).
  void merge_from(const MetricsRegistry& other);

  /// Snapshot: {"counters": [...], "gauges": [...], "histograms": [...]},
  /// histograms carrying count/mean/min/max and p50/p95/p99.
  Json to_json() const;

  void clear();

 private:
  std::map<MetricId, Counter> counters_;
  std::map<MetricId, Gauge> gauges_;
  std::map<MetricId, sim::Histogram> histograms_;
};

}  // namespace gflink::obs
