// Shared pieces of the repository benchmark (see README.md): host timing,
// the benchmark-side span recorder, the per-pass result records and the
// ordered metric list every workload fills.
//
// The simulator is single-threaded and deterministic, so one process runs
// one workload on one thread. Virtual results must repeat exactly across
// passes; host times are reported as medians over passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "workloads/common.hpp"

namespace perfbench {

namespace wl = gflink::workloads;
namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace obs = gflink::obs;
namespace sim = gflink::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

/// Nearest-rank quantile: the value at index ceil(q * n) - 1 of the sorted
/// samples (0 for no samples).
double nearest_rank(std::vector<double> v, double q);

/// Benchmark-side spans: name, host start/end and parent, recorded around
/// each call into a layer's public functions. Kept in memory; written out
/// once at exit. Recording is off unless enabled (the untraced run pays
/// nothing but a branch).
class HostSpans {
 public:
  struct Span {
    std::string name;
    double begin_s = 0.0;  // host seconds since the recorder was created
    double end_s = 0.0;
    int parent = -1;  // index into spans(), -1 for roots
  };

  /// Closes the span it opened when it goes out of scope.
  class Scope {
   public:
    Scope(HostSpans* owner, int index) : owner_(owner), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }

   private:
    HostSpans* owner_;
    int index_;
  };

  void enable() { enabled_ = true; }

  Scope scope(const std::string& name);
  const std::vector<Span>& spans() const { return spans_; }

  /// Write {"spans": [{name, begin_s, end_s, parent}, ...]}. False when the
  /// file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  void close(int index);

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One engine.run of one mode (GFlink or Flink) inside a pass.
struct ModeRun {
  sim::Duration makespan = 0;  // virtual ns at testbed scale
  double checksum = 0.0;
  std::uint64_t events = 0;  // Simulation::events_processed()
  int live_processes = 0;    // after run(); must be 0
  double host_s = 0.0;       // host wall time of engine.run
  // Traced passes only:
  std::unique_ptr<obs::MetricsRegistry> metrics;  // Engine + GFlinkRuntime export
  obs::CriticalPath cp;
  std::uint64_t spans = 0;
};

/// Per-job outcome of the multi-tenant mix (virtual, unscaled ns).
struct JobOutcome {
  int tenant = 0;
  bool ok = false;  // completed with the expected result
  sim::Time enqueued = 0;
  sim::Time dispatched = 0;
  sim::Time completed = 0;
};

/// Set-up is repeated this many times per pass (the last copy runs), so
/// that the set-up medians rest on enough samples.
inline constexpr int kSetupRepeats = 10;

/// One pass: the workload once in each mode, with its set-up.
struct Pass {
  ModeRun gflink;
  ModeRun flink;
  // Host seconds per set-up repeat, summed over both modes.
  std::vector<double> setup_engine_s = std::vector<double>(kSetupRepeats, 0.0);
  std::vector<double> setup_runtime_s = std::vector<double>(kSetupRepeats, 0.0);
  std::vector<double> setup_service_s = std::vector<double>(kSetupRepeats, 0.0);
  std::vector<JobOutcome> jobs;     // multitenant: the GFlink mix
  std::uint64_t rejected = 0;       // multitenant: both mixes
  double share_err = 0.0;           // multitenant: max |throughput - weight share|
  std::vector<std::string> errors;  // correctness failures of this pass

  double host_s() const { return gflink.host_s + flink.host_s; }
};

/// A named metric with its unit, in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One benchmark workload. Inputs come only from the seed.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Run one pass. `traced` turns on Testbed::trace and keeps the
  /// engines' metrics and critical paths in the result.
  virtual Pass run_pass(bool traced, HostSpans& spans) = 0;

  /// Timed host-layer calls on this workload's own record types, each for
  /// about `budget_s` seconds, appended to `out`.
  virtual void host_layers(double budget_s, HostSpans& spans, Metrics& out) = 0;

  /// The paper's GFlink-over-Flink factor (0 when the paper has none) and
  /// a note on how comparable the setup is.
  virtual double paper_speedup() const = 0;
  virtual const char* paper_note() const = 0;

  /// The scale factor the testbed runs at (virtual ns * 1e-9 / scale =
  /// full-scale seconds).
  double scale() const { return wl::Testbed{}.scale; }
};

/// Host seconds of the first (registering) call into the global kernel
/// registry. It is populated once per process, so this is paid once.
double kernel_registration_s();

/// Factory for the workloads BENCHMARK.json names: nullptr for any other.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Per-layer metrics of a traced pass: critical path, counters read from
/// the exported registries, and service figures (see README.md).
void layer_metrics(const Pass& traced, double scale, Metrics& out);

/// Timed host calls shared by the workloads: ShuffleSession::partition
/// (MB/s of input), RecordBatch::to_layout AoS->SoA->AoS (MB/s moved) and
/// MetricsRegistry::counter lookups of every counter `registry` holds (ns
/// per lookup).
double partition_mb_per_s(const gflink::mem::RecordBatch& batch, const df::KeyFn& key,
                          const df::CombineFn& combine, double budget_s);
double to_layout_mb_per_s(const gflink::mem::RecordBatch& aos, double budget_s);
double counter_lookup_ns(obs::MetricsRegistry& registry, double budget_s);

/// Where timed calls store a value derived from their results, so the
/// compiler cannot drop the calls.
inline volatile double sink = 0.0;

/// Run `fn` repeatedly for about `budget_s` seconds (at least three times)
/// and return the median of the per-call host seconds.
template <typename Fn>
double median_call_s(double budget_s, Fn&& fn) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 3 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return median(std::move(samples));
}

}  // namespace perfbench
