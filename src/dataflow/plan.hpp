// Logical plan nodes. A plan is a linear chain of operators rooted at a
// source; actions (collect/count/materialize/write) hand the chain to the
// engine, which splits it into stages at shuffle / partition-op boundaries.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/types.hpp"

namespace gflink::dataflow {

enum class OpKind : std::uint8_t {
  Source,
  Record,          // map / flatMap / filter (chained within a stage)
  MapPartition,    // CPU block processing (ends a stage)
  AsyncPartition,  // GPU / external block processing (ends a stage)
  ReduceByKey,     // local combine + hash shuffle + merge (ends a stage)
  GroupReduce,     // hash shuffle of raw records + per-group function
  Rebalance,       // round-robin repartition (ends a stage)
};

/// How a source obtains its records.
struct SourceSpec {
  const mem::StructDesc* desc = nullptr;
  int partitions = 0;  // 0 = engine default parallelism
  GeneratorFn generate;
  /// CPU cost of producing one record (parsing / deserialization).
  OpCost parse_cost{8.0, 0.0};
  /// Optional DFS backing: reading the file is charged before generation.
  std::string dfs_path;
  /// Optional in-memory backing: reuse a materialized dataset (no I/O).
  DataHandle handle;
};

struct OpNode {
  OpKind kind = OpKind::Record;
  std::string name;
  const mem::StructDesc* out_desc = nullptr;
  OpCost cost;
  std::shared_ptr<OpNode> input;  // null for sources

  // Kind-specific payloads (only the relevant ones are set).
  SourceSpec source;           // Source
  BatchFn record_fn;           // Record
  BatchFn partition_fn;        // MapPartition
  AsyncPartitionFn async_fn;   // AsyncPartition
  KeyFn key_fn;                // GroupReduce
  KeyedCombineFn keyed_combine;  // ReduceByKey
  GroupFn group_fn;            // GroupReduce
  /// Output size hint for partition ops: expected output records per input
  /// record (used to pre-reserve; purely an optimization hint).
  double output_ratio = 1.0;
};

using PlanNodePtr = std::shared_ptr<OpNode>;

/// The chain from source to sink, in execution order.
inline std::vector<const OpNode*> linearize(const OpNode* sink) {
  std::vector<const OpNode*> chain;
  for (const OpNode* n = sink; n != nullptr; n = n->input.get()) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  GFLINK_CHECK_MSG(!chain.empty() && chain.front()->kind == OpKind::Source,
                   "plan must start at a source");
  return chain;
}

/// One executable stage: a run of record ops optionally terminated by a
/// stage-breaking operator.
struct Stage {
  std::vector<const OpNode*> record_ops;  // applied in order
  const OpNode* terminal = nullptr;       // MapPartition/Async/Reduce/Rebalance or null
  /// Descriptor of this stage's output records.
  const mem::StructDesc* out_desc = nullptr;
};

/// Split a linearized chain (excluding the source) into stages.
inline std::vector<Stage> split_stages(const std::vector<const OpNode*>& chain) {
  std::vector<Stage> stages;
  Stage current;
  const mem::StructDesc* desc = chain.front()->out_desc;  // source descriptor
  current.out_desc = desc;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const OpNode* op = chain[i];
    if (op->kind == OpKind::Record) {
      current.record_ops.push_back(op);
      current.out_desc = op->out_desc;
    } else {
      current.terminal = op;
      current.out_desc = op->out_desc;
      stages.push_back(std::move(current));
      current = Stage{};
      current.out_desc = op->out_desc;
    }
  }
  if (!current.record_ops.empty() || stages.empty()) {
    stages.push_back(std::move(current));
  }
  return stages;
}

}  // namespace gflink::dataflow
