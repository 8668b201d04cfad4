// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// Typed DataSet facade — the user-facing API of the engine, mirroring
// Flink's DataSet (and GFlink's GDST once the GPU operators from src/core
// are applied to it).
//
// T must be a trivially-copyable mirror of its GStruct descriptor
// (StructDesc::matches_host_layout<T>() must hold); records then move
// through the engine as raw GStruct bytes with zero serialization — the
// paper's central data-representation idea.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dataflow/engine.hpp"

namespace gflink::dataflow {

/// Typed emit-collector handed to flatMap, groupReduce, coGroup and join
/// user functions. It gathers the emitted records into a typed buffer that
/// the operator appends to its output batch in one copy.
template <typename U>
class FlatCollector {
 public:
  explicit FlatCollector(std::vector<U>& rows) : rows_(&rows) {}
  void add(const U& record) { rows_->push_back(record); }

 private:
  std::vector<U>* rows_;
};

template <typename T>
class DataSet {
 public:
  DataSet() = default;
  DataSet(Engine* engine, PlanNodePtr node) : engine_(engine), node_(std::move(node)) {}

  /// A synthetic source: `generate(partition, out)` fills each partition
  /// deterministically. If `dfs_path` names an existing GDFS file, reading
  /// it is charged before generation (locality-aware splits).
  static DataSet from_generator(Engine& engine, const mem::StructDesc* desc, int partitions,
                                std::function<void(int, std::vector<T>&)> generate,
                                OpCost parse_cost = OpCost{8.0, 0.0},
                                std::string dfs_path = {}) {
    auto node = std::make_shared<OpNode>();
    node->kind = OpKind::Source;
    node->name = "source";
    node->out_desc = desc;
    node->source.desc = desc;
    node->source.partitions = partitions;
    node->source.parse_cost = parse_cost;
    node->source.dfs_path = std::move(dfs_path);
    node->source.generate = [generate = std::move(generate)](int part, mem::RecordBatch& out) {
      std::vector<T> rows;
      generate(part, rows);
      out.append_all(std::span<const T>(rows));
    };
    return DataSet(&engine, std::move(node));
  }

  /// Wrap an already-materialized distributed dataset (iteration feedback).
  static DataSet from_handle(Engine& engine, DataHandle handle) {
    auto node = std::make_shared<OpNode>();
    node->kind = OpKind::Source;
    node->name = "cached";
    node->out_desc = handle->desc;
    node->source.desc = handle->desc;
    node->source.handle = std::move(handle);
    return DataSet(&engine, std::move(node));
  }

  Engine& engine() const { return *engine_; }
  const PlanNodePtr& node() const { return node_; }
  const mem::StructDesc* desc() const { return node_->out_desc; }

  // ---- Transformations --------------------------------------------------
  //
  // Record operators take the user function as a template parameter and
  // compile one typed loop per batch: no per-record type-erased call and
  // one layout check per batch. `fn(const T&) -> U` for map,
  // `fn(const T&, FlatCollector<U>&)` for flat_map, `pred(const T&) -> bool`
  // for filter.

  template <typename U, typename F>
  DataSet<U> map(const mem::StructDesc* out_desc, std::string name, OpCost cost, F fn) const {
    auto n = record_node(out_desc, std::move(name), cost);
    n->record_fn = [fn = std::move(fn)](const mem::RecordBatch& in,
                                        mem::RecordBatch& out) mutable {
      const std::size_t count = in.count();
      if (count == 0) return;
      const T* src = in.template aos_view<T>();
      const std::size_t base = out.count();
      out.resize(base + count);
      U* dst = out.template aos_view<U>() + base;
      for (std::size_t i = 0; i < count; ++i) dst[i] = fn(src[i]);
    };
    return DataSet<U>(engine_, std::move(n));
  }

  template <typename U, typename F>
  DataSet<U> flat_map(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                      F fn) const {
    auto n = record_node(out_desc, std::move(name), cost);
    n->record_fn = [fn = std::move(fn)](const mem::RecordBatch& in,
                                        mem::RecordBatch& out) mutable {
      const std::size_t count = in.count();
      if (count == 0) return;
      const T* src = in.template aos_view<T>();
      std::vector<U> rows;
      rows.reserve(count);
      FlatCollector<U> collector(rows);
      for (std::size_t i = 0; i < count; ++i) fn(src[i], collector);
      out.append_all<U>(rows);
    };
    return DataSet<U>(engine_, std::move(n));
  }

  template <typename F>
  DataSet filter(std::string name, OpCost cost, F pred) const {
    auto n = record_node(node_->out_desc, std::move(name), cost);
    n->record_fn = [pred = std::move(pred)](const mem::RecordBatch& in,
                                            mem::RecordBatch& out) mutable {
      const std::size_t count = in.count();
      if (count == 0) return;
      const T* src = in.template aos_view<T>();
      const std::size_t base = out.count();
      out.resize(base + count);
      T* dst = out.template aos_view<T>() + base;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (pred(src[i])) std::memcpy(dst + kept++, src + i, sizeof(T));
      }
      out.resize(base + kept);
    };
    return DataSet(engine_, std::move(n));
  }

  /// Combine records sharing a key (map-side combine + hash shuffle +
  /// reduce-side merge). `key(const T&) -> uint64` picks the key and
  /// `combine(T&, const T&)` folds the right record into the left; both are
  /// template parameters, inlined into one typed combine loop per batch
  /// (shuffle::combine_by_key) that serves both sides of the exchange.
  template <typename K, typename C>
  DataSet reduce_by_key(std::string name, OpCost cost, K key, C combine) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::ReduceByKey;
    n->name = std::move(name);
    n->out_desc = node_->out_desc;
    n->cost = cost;
    n->input = node_;
    n->keyed_combine = [key = std::move(key), combine = std::move(combine)](
                           std::span<const mem::RecordBatch> in,
                           shuffle::CombineScratch& scratch,
                           std::span<mem::RecordBatch> buckets) mutable {
      GFLINK_CHECK_MSG(!buckets.empty() && buckets.front().desc().matches_host_layout<T>(),
                       "descriptor does not match host layout");
      shuffle::combine_by_key(
          in, scratch, buckets,
          [&key](const std::byte* rec) {
            return static_cast<std::uint64_t>(key(*reinterpret_cast<const T*>(rec)));
          },
          [&combine](std::byte* acc, const std::byte* rec) {
            combine(*reinterpret_cast<T*>(acc), *reinterpret_cast<const T*>(rec));
          });
    };
    return DataSet(engine_, std::move(n));
  }

  /// General group transformation (Flink's groupReduce): the function sees
  /// every record of one key and may emit any number of records of a new
  /// type. No map-side combine runs (the function need not be associative),
  /// so the full keyed records are shuffled.
  template <typename U>
  DataSet<U> group_reduce(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                          std::function<std::uint64_t(const T&)> key,
                          std::function<void(const std::vector<const T*>&, FlatCollector<U>&)>
                              group_fn) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::GroupReduce;
    n->name = std::move(name);
    n->out_desc = out_desc;
    n->cost = cost;
    n->input = node_;
    n->key_fn = [key = std::move(key)](const std::byte* rec) {
      return key(*reinterpret_cast<const T*>(rec));
    };
    n->group_fn = [group_fn = std::move(group_fn)](const std::vector<const std::byte*>& group,
                                                   mem::RecordBatch& out) {
      std::vector<const T*> typed;
      typed.reserve(group.size());
      for (const std::byte* p : group) typed.push_back(reinterpret_cast<const T*>(p));
      std::vector<U> rows;
      FlatCollector<U> collector(rows);
      group_fn(typed, collector);
      out.append_all<U>(rows);
    };
    return DataSet<U>(engine_, std::move(n));
  }

  /// Reduce everything to one record (key = constant).
  template <typename C>
  DataSet reduce(std::string name, OpCost cost, C combine) const {
    return reduce_by_key(std::move(name), cost, [](const T&) { return std::uint64_t{0}; },
                         std::move(combine));
  }

  /// CPU block processing of a whole partition.
  template <typename U>
  DataSet<U> map_partition(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                           std::function<void(std::span<const T>, std::vector<U>&)> fn) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::MapPartition;
    n->name = std::move(name);
    n->out_desc = out_desc;
    n->cost = cost;
    n->input = node_;
    n->partition_fn = [fn = std::move(fn)](const mem::RecordBatch& in, mem::RecordBatch& out) {
      std::span<const T> rows(in.count() ? in.template aos_view<T>() : nullptr, in.count());
      std::vector<U> result;
      fn(rows, result);
      out.append_all(std::span<const U>(result));
    };
    return DataSet<U>(engine_, std::move(n));
  }

  /// Asynchronous block processing — the GFlink GPU extension point. The
  /// function receives the task context (whose extension() is the worker's
  /// GpuManager) and must fill `out`.
  template <typename U>
  DataSet<U> async_map_partition(const mem::StructDesc* out_desc, std::string name,
                                 AsyncPartitionFn fn) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::AsyncPartition;
    n->name = std::move(name);
    n->out_desc = out_desc;
    n->input = node_;
    n->async_fn = std::move(fn);
    return DataSet<U>(engine_, std::move(n));
  }

  /// Keep one record per key (Flink's distinct). The kept record is the
  /// first seen in partition order.
  template <typename K>
  DataSet distinct(std::string name, OpCost cost, K key) const {
    return reduce_by_key(std::move(name), cost, std::move(key),
                         [](T&, const T&) { /* keep the first */ });
  }

  /// Deterministic Bernoulli sample: keeps `fraction` of records, selected
  /// by a hash of the record's key (stable across partitionings and runs).
  DataSet sample(std::string name, double fraction,
                 std::function<std::uint64_t(const T&)> key) const {
    GFLINK_CHECK(fraction >= 0.0 && fraction <= 1.0);
    // 2^64-1 is not representable as a double (it rounds to 2^64, whose
    // cast is UB), so saturate explicitly at the top.
    const std::uint64_t threshold =
        fraction >= 1.0 ? ~0ULL : static_cast<std::uint64_t>(fraction * 0x1.0p64);
    return filter(std::move(name), OpCost{8.0, static_cast<double>(node_->out_desc->stride())},
                  [key = std::move(key), threshold](const T& record) {
                    std::uint64_t h = key(record);
                    return sim::splitmix64(h) <= threshold;
                  });
  }

  /// First `n` records (by partition order) gathered to the driver.
  sim::Co<std::vector<T>> take(Job& job, std::size_t n) const {
    // Each partition contributes at most n records; the driver trims.
    auto limited = this->template map_partition<T>(
        node_->out_desc, "take", OpCost{1.0, static_cast<double>(node_->out_desc->stride())},
        [n](std::span<const T> rows, std::vector<T>& out) {
          for (std::size_t i = 0; i < std::min(n, rows.size()); ++i) out.push_back(rows[i]);
        });
    auto rows = co_await limited.collect(job);
    if (rows.size() > n) rows.resize(n);
    co_return rows;
  }

  /// Round-robin repartition.
  DataSet rebalance(std::string name = "rebalance") const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::Rebalance;
    n->name = std::move(name);
    n->out_desc = node_->out_desc;
    n->input = node_;
    return DataSet(engine_, std::move(n));
  }

  // ---- Actions ------------------------------------------------------------

  sim::Co<DataHandle> materialize(Job& job) const {
    return engine_->materialize(job, node_);
  }

  sim::Co<std::vector<T>> collect(Job& job) const {
    auto batch = co_await engine_->collect(job, node_);
    std::vector<T> rows;
    rows.reserve(batch->count());
    if (batch->count() > 0) {
      const T* view = batch->template aos_view<T>();
      rows.assign(view, view + batch->count());
    }
    co_return rows;
  }

  sim::Co<std::uint64_t> count(Job& job) const { return engine_->count(job, node_); }

  sim::Co<void> write_dfs(Job& job, const std::string& path) const {
    return engine_->write_dfs(job, node_, path);
  }

 private:
  PlanNodePtr record_node(const mem::StructDesc* out_desc, std::string name, OpCost cost) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::Record;
    n->name = std::move(name);
    n->out_desc = out_desc;
    n->cost = cost;
    n->input = node_;
    return n;
  }

  Engine* engine_ = nullptr;
  PlanNodePtr node_;
};

/// Typed coGroup of two materialized datasets: for every key, `group_fn`
/// receives all left and all right records with that key.
template <typename L, typename R, typename O>
sim::Co<DataHandle> co_group(
    Job& job, const DataHandle& left, const DataHandle& right,
    std::function<std::uint64_t(const L&)> left_key,
    std::function<std::uint64_t(const R&)> right_key,
    std::function<void(const std::vector<const L*>&, const std::vector<const R*>&,
                       FlatCollector<O>&)>
        group_fn,
    const mem::StructDesc* out_desc, OpCost cost, int partitions = 0,
    const std::string& name = "coGroup") {
  return job.engine().co_group(
      job, left, right,
      [left_key = std::move(left_key)](const std::byte* rec) {
        return left_key(*reinterpret_cast<const L*>(rec));
      },
      [right_key = std::move(right_key)](const std::byte* rec) {
        return right_key(*reinterpret_cast<const R*>(rec));
      },
      [group_fn = std::move(group_fn)](const std::vector<const std::byte*>& l,
                                       const std::vector<const std::byte*>& r,
                                       mem::RecordBatch& out) {
        std::vector<const L*> lv;
        lv.reserve(l.size());
        for (const std::byte* p : l) lv.push_back(reinterpret_cast<const L*>(p));
        std::vector<const R*> rv;
        rv.reserve(r.size());
        for (const std::byte* p : r) rv.push_back(reinterpret_cast<const R*>(p));
        std::vector<O> rows;
        FlatCollector<O> collector(rows);
        group_fn(lv, rv, collector);
        out.append_all<O>(rows);
      },
      out_desc, cost, partitions, name);
}

/// Hash join of two typed datasets.
template <typename L, typename R, typename O>
sim::Co<DataHandle> join(Job& job, const DataHandle& left, const DataHandle& right,
                         std::function<std::uint64_t(const L&)> left_key,
                         std::function<std::uint64_t(const R&)> right_key,
                         std::function<void(const L&, const R&, FlatCollector<O>&)> join_fn,
                         const mem::StructDesc* out_desc, OpCost cost, int partitions = 0,
                         const std::string& name = "join") {
  return job.engine().join(
      job, left, right,
      [left_key = std::move(left_key)](const std::byte* rec) {
        return left_key(*reinterpret_cast<const L*>(rec));
      },
      [right_key = std::move(right_key)](const std::byte* rec) {
        return right_key(*reinterpret_cast<const R*>(rec));
      },
      [join_fn = std::move(join_fn)](const std::byte* l, const std::byte* r,
                                     mem::RecordBatch& out) {
        std::vector<O> rows;
        FlatCollector<O> collector(rows);
        join_fn(*reinterpret_cast<const L*>(l), *reinterpret_cast<const R*>(r), collector);
        out.append_all<O>(rows);
      },
      out_desc, cost, partitions, name);
}

}  // namespace gflink::dataflow
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
