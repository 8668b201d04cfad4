// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// Event-level stream processing — the paper's declared future direction
// (§1.1: Flink was chosen over Spark because it treats batch as a special
// case of streaming, and the authors planned a streaming GFlink).
//
// This module implements that extension: unbounded-style sources emit
// individual events at a configurable rate into per-partition operator
// pipelines connected by bounded channels (bounded queues give Flink-style
// back-pressure: a slow operator stalls the source instead of dropping).
// Operators are:
//   * Map        — per-event CPU processing (the iterator model, charged
//                  per event);
//   * GpuBatch   — GFlink-style micro-batching: buffer B events, submit
//                  one GWork through the worker's GStreamManager, emit the
//                  results. Trades per-event latency for throughput —
//                  exactly the batching/latency tension the paper's
//                  streaming discussion is about;
//   * WindowSum  — tumbling count-window aggregation by key.
// The sink measures per-event latency (emission to completion) and
// end-to-end throughput.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/gpu_manager.hpp"
#include "dataflow/engine.hpp"
#include "sim/stats.hpp"

namespace gflink::core {

using dataflow::BatchFn;
using dataflow::CombineFn;
using dataflow::Engine;
using dataflow::Job;
using dataflow::KeyFn;
using dataflow::OpCost;

struct StreamOp {
  enum class Kind : std::uint8_t { Map, GpuBatch, WindowSum };
  Kind kind = Kind::Map;
  std::string name;
  const mem::StructDesc* out_desc = nullptr;

  // Map: applied per event, to a one-record batch of the previous
  // operator's (or the source's) descriptor; appends to `out_desc` records.
  BatchFn map_fn;
  OpCost cost;

  // GpuBatch: kernel over micro-batches of `batch_size` events. The kernel
  // sees buffers [in, out] with equal record counts.
  std::string kernel;
  std::size_t batch_size = 256;
  mem::Layout layout = mem::Layout::SoA;

  // WindowSum: per `window` consecutive events of a key, emit one record
  // combined with `combine_fn` (record type unchanged).
  KeyFn key_fn;
  CombineFn combine_fn;
  std::size_t window = 1024;
};

struct StreamingConfig {
  /// Aggregate source rate over all partitions (events/second of virtual
  /// time).
  double events_per_second = 1e6;
  /// Bounded experiment length.
  std::uint64_t total_events = 100'000;
  /// Pipeline instances (one per worker round-robin). 0 = one per worker.
  int parallelism = 0;
  /// Channel depth between operators (back-pressure bound).
  std::size_t queue_capacity = 1024;
};

struct StreamingResult {
  std::uint64_t events_in = 0;
  std::uint64_t events_out = 0;
  sim::Duration makespan = 0;
  double throughput_eps = 0.0;  // events_out / makespan
  sim::Summary latency;         // ns, per sink event
  double latency_p50 = 0.0;     // ns
  double latency_p99 = 0.0;     // ns
  std::uint64_t gpu_batches = 0;
};

/// Generate the i-th event's record bytes (out_desc-stride long) into
/// `record`.
using EventGenerator = std::function<void(std::uint64_t index, std::byte* record)>;

/// Run a bounded streaming job: `events` flow through `ops` on
/// `config.parallelism` pipeline instances. Requires a submitted job.
sim::Co<StreamingResult> run_streaming(Engine& engine, Job& job,
                                       const mem::StructDesc* in_desc,
                                       EventGenerator generate, std::vector<StreamOp> ops,
                                       const StreamingConfig& config);

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
