// Common types for the dataflow engine: the per-record cost model and the
// type-erased user-function signatures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "mem/record_batch.hpp"
#include "sim/coro.hpp"

namespace gflink::shuffle {
struct CombineScratch;
}  // namespace gflink::shuffle

namespace gflink::dataflow {

class TaskContext;

/// CPU cost of applying one operator to one record (roofline inputs; see
/// net::Node::record_time). The iterator-model per-record overhead is added
/// by the node spec, not here.
struct OpCost {
  double flops = 0.0;
  double bytes = 0.0;
};

/// Key extraction for shuffles (reduceByKey, join).
using KeyFn = std::function<std::uint64_t(const std::byte* record)>;

/// In-place associative combine: fold `record` into `accumulator`.
/// Both sides use the operator's record descriptor.
using CombineFn = std::function<void(std::byte* accumulator, const std::byte* record)>;

/// Keyed combine (reduceByKey), compiled once per operator with the user's
/// key and combine functions inlined: folds the records of `in`, batch after
/// batch, into the empty `buckets` through `scratch` — the map side with one
/// bucket per target partition, the reduce-side merge with one bucket (see
/// shuffle::combine_by_key).
using KeyedCombineFn = std::function<void(std::span<const mem::RecordBatch> in,
                                          shuffle::CombineScratch& scratch,
                                          std::span<mem::RecordBatch> buckets)>;

/// General (non-associative) group function: receives every record of one
/// key and emits any number of output records (Flink's groupReduce).
using GroupFn =
    std::function<void(const std::vector<const std::byte*>& group, mem::RecordBatch& out)>;

/// Batch operator: reads `in` and appends its output records to `out`.
/// Record ops (map / flatMap / filter) and CPU block processing
/// (mapPartition) both run once per batch through it; the per-record
/// iterator cost is charged by the engine, not paid on the host.
using BatchFn = std::function<void(const mem::RecordBatch& in, mem::RecordBatch& out)>;

/// Whole-partition asynchronous operator: the extension point the GFlink
/// GPU layer plugs into (a GPU mapper submits GWork and awaits results).
using AsyncPartitionFn = std::function<sim::Co<void>(TaskContext& ctx, const mem::RecordBatch& in,
                                                     mem::RecordBatch& out)>;

/// Deterministic partition generator for synthetic sources.
using GeneratorFn = std::function<void(int partition, mem::RecordBatch& out)>;

/// Join record constructor: build output records from a (left, right) pair.
using JoinFn =
    std::function<void(const std::byte* left, const std::byte* right, mem::RecordBatch& out)>;

/// A materialized distributed dataset: partitions pinned to workers.
/// This is what Flink calls an intermediate result; handles staying alive
/// across jobs are the "in-memory computing" the paper builds on.
struct MaterializedDataSet {
  const mem::StructDesc* desc = nullptr;
  struct Part {
    int worker = 0;
    std::shared_ptr<mem::RecordBatch> batch;
  };
  std::vector<Part> parts;

  std::uint64_t total_records() const {
    std::uint64_t n = 0;
    for (const auto& p : parts) n += p.batch ? p.batch->count() : 0;
    return n;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const auto& p : parts) n += p.batch ? p.batch->byte_size() : 0;
    return n;
  }
};

using DataHandle = std::shared_ptr<MaterializedDataSet>;

}  // namespace gflink::dataflow
