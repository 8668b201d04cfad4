// Tests for the dataflow engine: sources, operator chains, shuffles,
// actions, joins, locality, slots and job accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <numeric>

#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace df = gflink::dataflow;
using df::DataSet;
using df::Engine;
using df::Job;
using df::OpCost;
using sim::Co;

namespace {

struct KV {
  std::uint64_t key;
  std::int64_t value;
};

const mem::StructDesc& kv_desc() {
  static const mem::StructDesc d = mem::StructDescBuilder("KV", 8)
                                       .field("key", mem::FieldType::U64, 1, offsetof(KV, key))
                                       .field("value", mem::FieldType::I64, 1, offsetof(KV, value))
                                       .build();
  return d;
}

df::EngineConfig fast_config(int workers = 3) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = workers;
  cfg.dfs.replication = workers >= 2 ? 2 : 1;
  // Keep control-plane overheads tiny so arithmetic-oriented tests can
  // reason about data-plane costs.
  cfg.job_submit_overhead = sim::micros(10);
  cfg.job_schedule_overhead = sim::micros(10);
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  return cfg;
}

/// Source of KVs 0..n-1 (key = i % key_mod, value = i), spread over parts.
DataSet<KV> iota(Engine& e, int partitions, std::uint64_t n, std::uint64_t key_mod) {
  return DataSet<KV>::from_generator(
      e, &kv_desc(), partitions,
      [n, key_mod, partitions](int part, std::vector<KV>& out) {
        for (std::uint64_t i = part; i < n; i += static_cast<std::uint64_t>(partitions)) {
          out.push_back(KV{i % key_mod, static_cast<std::int64_t>(i)});
        }
      });
}

}  // namespace

TEST(Engine, DefaultParallelismIsWorkersTimesSlots) {
  auto cfg = fast_config(3);
  cfg.slots_per_worker = 2;
  Engine e(cfg);
  EXPECT_EQ(e.default_parallelism(), 6);
  cfg.slots_per_worker = 0;  // falls back to CPU cores (4)
  Engine e2(cfg);
  EXPECT_EQ(e2.default_parallelism(), 12);
}

TEST(Engine, SourceGeneratesAllRecordsAcrossPartitions) {
  Engine e(fast_config());
  std::uint64_t count = 0;
  e.run([&count](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 1000, 1000);
    count = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(count, 1000u);
}

TEST(Engine, MapTransformsEveryRecord) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 100, 100).map<KV>(
        &kv_desc(), "double", OpCost{2.0, 16.0},
        [](const KV& kv) { return KV{kv.key, kv.value * 2}; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 100u);
  std::map<std::uint64_t, std::int64_t> by_key;
  for (const auto& kv : rows) by_key[kv.key] = kv.value;
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(by_key[i], static_cast<std::int64_t>(2 * i));
}

TEST(Engine, FilterDropsRecords) {
  Engine e(fast_config());
  std::uint64_t n = 0;
  e.run([&n](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 1000, 1000).filter("evens", OpCost{1.0, 8.0}, [](const KV& kv) {
      return kv.value % 2 == 0;
    });
    n = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(n, 500u);
}

TEST(Engine, FlatMapEmitsZeroToMany) {
  Engine e(fast_config());
  std::uint64_t n = 0;
  e.run([&n](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 100, 100).flat_map<KV>(
        &kv_desc(), "explode", OpCost{1.0, 8.0},
        [](const KV& kv, df::FlatCollector<KV>& out) {
          for (std::int64_t j = 0; j < kv.value % 3; ++j) out.add(kv);
        });
    n = co_await ds.count(job);
    job.finish();
  });
  // Sum over i in [0,100) of (i % 3) = 33*(0+1+2) + 0 = 99.
  EXPECT_EQ(n, 99u);
}

TEST(Engine, ReduceByKeyAggregatesCorrectly) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 1000, 10).reduce_by_key(
        "sum", OpCost{4.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 10u);
  std::map<std::uint64_t, std::int64_t> by_key;
  for (const auto& kv : rows) by_key[kv.key] = kv.value;
  // Key k holds sum of k, k+10, ..., k+990 = 100*k + 10*(0+..+99)*... check
  // directly against a reference computation.
  std::map<std::uint64_t, std::int64_t> expect;
  for (std::uint64_t i = 0; i < 1000; ++i) expect[i % 10] += static_cast<std::int64_t>(i);
  EXPECT_EQ(by_key, expect);
}

TEST(Engine, GlobalReduceProducesOneRecord) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 100, 100).reduce("total", OpCost{1.0, 8.0},
                                            [](KV& acc, const KV& kv) { acc.value += kv.value; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, 99 * 100 / 2);
}

TEST(Engine, ChainedOperatorsStayInOneStage) {
  Engine e(fast_config());
  df::JobStats stats;
  e.run([&stats](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 100, 100)
                  .map<KV>(&kv_desc(), "m1", OpCost{}, [](const KV& kv) { return kv; })
                  .filter("f1", OpCost{}, [](const KV&) { return true; })
                  .map<KV>(&kv_desc(), "m2", OpCost{}, [](const KV& kv) { return kv; });
    (void)co_await ds.count(job);
    job.finish();
    stats = job.stats();
  });
  // One source stage + one chained record stage.
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[0].name, "source");
  EXPECT_EQ(stats.stages[1].name, "m2");
}

TEST(Engine, MapPartitionSeesWholeBlocks) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    // Partition-local count: each partition emits one record.
    auto ds = iota(eng, 5, 100, 100).map_partition<KV>(
        &kv_desc(), "pcount", OpCost{1.0, 8.0},
        [](std::span<const KV> part, std::vector<KV>& out) {
          out.push_back(KV{0, static_cast<std::int64_t>(part.size())});
        });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 5u);
  std::int64_t total = 0;
  for (const auto& kv : rows) total += kv.value;
  EXPECT_EQ(total, 100);
}

TEST(Engine, AsyncMapPartitionGetsContext) {
  Engine e(fast_config());
  int seen_workers = 0;
  bool extension_seen = false;
  int sentinel = 42;
  e.set_extension(1, &sentinel);
  e.set_extension(2, &sentinel);
  e.set_extension(3, &sentinel);
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 3, 30, 30).async_map_partition<KV>(
        &kv_desc(), "gpuish",
        [&](df::TaskContext& ctx, const mem::RecordBatch& in,
            mem::RecordBatch& out) -> Co<void> {
          ++seen_workers;
          extension_seen = extension_seen || (ctx.extension() == &sentinel);
          co_await ctx.sim().delay(sim::millis(1));
          for (std::size_t i = 0; i < in.count(); ++i) out.append_raw(in.record_ptr(i));
        });
    auto n = co_await ds.count(job);
    EXPECT_EQ(n, 30u);
    job.finish();
  });
  EXPECT_EQ(seen_workers, 3);
  EXPECT_TRUE(extension_seen);
}

TEST(Engine, ShuffleMovesBytesOverNetwork) {
  Engine e(fast_config(4));
  double net_bytes = 0;
  e.run([&net_bytes](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 8, 10000, 1000).reduce_by_key(
        "sum", OpCost{1.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await ds.count(job);
    job.finish();
    // The default one-sided transport moves shuffle payloads over the
    // RDMA pipes, which account separately from the message-passing NIC.
    net_bytes = eng.cluster().metrics().counter("net.bytes") +
                eng.cluster().metrics().counter("net.rdma_bytes");
    EXPECT_GT(job.stats().shuffle_bytes, 0u);
  });
  EXPECT_GT(net_bytes, 0.0);
}

TEST(Engine, MapSideCombineShrinksShuffle) {
  // With few keys, local combine should make shuffle bytes proportional to
  // keys*partitions, far below total records.
  Engine e(fast_config(4));
  std::uint64_t shuffle_bytes = 0;
  e.run([&shuffle_bytes](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 8, 100000, 4).reduce_by_key(
        "sum", OpCost{1.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await ds.count(job);
    job.finish();
    shuffle_bytes = job.stats().shuffle_bytes;
  });
  // 4 keys * 8 partitions * 16 bytes = 512 max (only remote buckets count).
  EXPECT_LE(shuffle_bytes, 512u);
  EXPECT_GT(shuffle_bytes, 0u);
}

TEST(Engine, DfsBackedSourceChargesIoAndPrefersLocality) {
  auto cfg = fast_config(4);
  cfg.dfs.block_size = 1 << 20;
  Engine e(cfg);
  std::uint64_t io_read = 0;
  double remote = 0, local = 0;
  e.dfs().create_file("/input", 8 << 20);  // 8 blocks over 4 workers
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = DataSet<KV>::from_generator(
        eng, &kv_desc(), 8,
        [](int part, std::vector<KV>& out) {
          out.push_back(KV{static_cast<std::uint64_t>(part), 1});
        },
        OpCost{8.0, 0.0}, "/input");
    (void)co_await ds.count(job);
    job.finish();
    io_read = job.stats().io_bytes_read;
    local = eng.cluster().metrics().counter("dfs.local_reads");
    remote = eng.cluster().metrics().counter("dfs.remote_reads");
  });
  EXPECT_EQ(io_read, 8u << 20);
  // Splits are assigned to primary-replica holders: all reads local.
  EXPECT_EQ(local, 8.0);
  EXPECT_EQ(remote, 0.0);
}

TEST(Engine, SlotsLimitTaskConcurrency) {
  // One worker, one slot, 4 partitions each costing ~1 ms of CPU: the stage
  // must take ~4 ms. With 4 slots it takes ~1 ms.
  auto run_with_slots = [](int slots) {
    auto cfg = fast_config(1);
    cfg.dfs.replication = 1;
    cfg.slots_per_worker = slots;
    cfg.cluster.worker.cpu.record_overhead = 1000;  // 1 us per record
    Engine e(cfg);
    sim::Time total = 0;
    e.run([&total](Engine& eng) -> Co<void> {
      Job job(eng, "t");
      co_await job.submit();
      auto ds = iota(eng, 4, 4000, 4000).map<KV>(&kv_desc(), "work", OpCost{0.0, 0.0},
                                                 [](const KV& kv) { return kv; });
      (void)co_await ds.count(job);
      job.finish();
      total = job.stats().finished_at - job.stats().running_at;
    });
    return total;
  };
  auto serial = run_with_slots(1);
  auto parallel = run_with_slots(4);
  EXPECT_GT(serial, parallel * 3);
}

TEST(Engine, RecordCostsScaleStageTime) {
  auto run_with_flops = [](double flops) {
    Engine e(fast_config(2));
    sim::Time t = 0;
    e.run([&t, flops](Engine& eng) -> Co<void> {
      Job job(eng, "t");
      co_await job.submit();
      auto ds = iota(eng, 2, 20000, 20000)
                    .map<KV>(&kv_desc(), "work", OpCost{flops, 0.0},
                             [](const KV& kv) { return kv; });
      (void)co_await ds.count(job);
      job.finish();
      t = job.stats().finished_at - job.stats().running_at;
    });
    return t;
  };
  // 100x the flops per record should dominate and scale stage time.
  EXPECT_GT(run_with_flops(400000.0), 10 * run_with_flops(400.0));
}

TEST(Engine, WriteDfsReplicates) {
  Engine e(fast_config(3));
  std::uint64_t written = 0;
  double dfs_written = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 3, 3000, 3000);
    co_await ds.write_dfs(job, "/out");
    job.finish();
    written = job.stats().io_bytes_written;
    dfs_written = eng.cluster().metrics().counter("dfs.bytes_written");
  });
  EXPECT_EQ(written, 3000u * 16u);
  EXPECT_DOUBLE_EQ(dfs_written, 3000.0 * 16.0);
}

TEST(Engine, JoinMatchesKeys) {
  Engine e(fast_config(3));
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto left = co_await iota(eng, 3, 10, 10).materialize(job);
    auto right = co_await iota(eng, 3, 20, 10).materialize(job);  // keys repeat twice
    auto joined = co_await df::join<KV, KV, KV>(
        job, left, right, [](const KV& kv) { return kv.key; },
        [](const KV& kv) { return kv.key; },
        [](const KV& l, const KV& r, df::FlatCollector<KV>& out) {
          out.add(KV{l.key, l.value + r.value});
        },
        &kv_desc(), OpCost{8.0, 32.0}, 3);
    auto ds = DataSet<KV>::from_handle(eng, joined);
    rows = co_await ds.collect(job);
    job.finish();
  });
  // Every left key matches exactly two right records.
  EXPECT_EQ(rows.size(), 20u);
}

TEST(Engine, MaterializedHandleReusedWithoutIo) {
  auto cfg = fast_config(3);
  cfg.dfs.block_size = 1 << 20;
  Engine e(cfg);
  e.dfs().create_file("/in", 3 << 20);
  double reads_after_first = -1;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto src = DataSet<KV>::from_generator(
        eng, &kv_desc(), 3,
        [](int part, std::vector<KV>& out) {
          for (int i = 0; i < 100; ++i) out.push_back(KV{static_cast<std::uint64_t>(part), i});
        },
        OpCost{8.0, 0.0}, "/in");
    auto handle = co_await src.materialize(job);
    double reads0 = eng.cluster().metrics().counter("dfs.blocks_read");
    // Iterate on the cached handle: no further DFS traffic.
    for (int iter = 0; iter < 3; ++iter) {
      auto ds = DataSet<KV>::from_handle(eng, handle)
                    .map<KV>(&kv_desc(), "it", OpCost{4.0, 16.0},
                             [](const KV& kv) { return kv; });
      handle = co_await ds.materialize(job);
    }
    reads_after_first = eng.cluster().metrics().counter("dfs.blocks_read") - reads0;
    job.finish();
  });
  EXPECT_EQ(reads_after_first, 0.0);
}

TEST(Engine, BroadcastAndGatherChargeNetwork) {
  Engine e(fast_config(4));
  double bytes = 0;
  e.run([&bytes](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    co_await eng.broadcast(job, 1 << 20);
    co_await eng.gather(job, 1 << 10);
    job.finish();
    bytes = eng.cluster().metrics().counter("net.bytes");
  });
  EXPECT_DOUBLE_EQ(bytes, 4.0 * (1 << 20) + 4.0 * (1 << 10));
}

TEST(Engine, JobStatsDecomposeSubmissionAndStages) {
  auto cfg = fast_config(2);
  cfg.job_submit_overhead = sim::millis(900);
  cfg.job_schedule_overhead = sim::millis(400);
  Engine e(cfg);
  df::JobStats stats;
  e.run([&stats](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 2, 100, 10).reduce_by_key(
        "sum", OpCost{1.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await ds.count(job);
    job.finish();
    stats = job.stats();
  });
  EXPECT_EQ(stats.running_at - stats.submitted_at, sim::millis(1300));
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[1].name, "sum");
  EXPECT_GE(stats.stages[1].begin, stats.stages[0].end);
  EXPECT_GT(stats.stages[0].records_out, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e(fast_config(3));
    sim::Time end = 0;
    std::uint64_t n = 0;
    e.run([&](Engine& eng) -> Co<void> {
      Job job(eng, "t");
      co_await job.submit();
      auto ds = iota(eng, 6, 5000, 97).reduce_by_key(
          "sum", OpCost{3.0, 16.0}, [](const KV& kv) { return kv.key; },
          [](KV& acc, const KV& kv) { acc.value += kv.value; });
      n = co_await ds.count(job);
      job.finish();
      end = eng.now();
    });
    return std::pair<sim::Time, std::uint64_t>(end, n);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CombineByKeyMatchesOrderedMapReference) {
  // Keys 0 and ~0ULL are valid, strided keys share their low bits (they
  // collide modulo any power-of-two table size), and 3000 distinct keys
  // force several growths of the flat index.
  std::vector<std::uint64_t> pool = {0, ~0ULL, 1, ~0ULL - 1};
  for (std::uint64_t i = 1; i <= 64; ++i) {
    pool.push_back(i << 16);
    pool.push_back(i << 32);
    pool.push_back(i << 58);
  }
  std::uint64_t s = 5;
  while (pool.size() < 3000) pool.push_back(sim::splitmix64(s));
  mem::RecordBatch in(&kv_desc());
  std::vector<KV> expected;
  std::map<std::uint64_t, std::size_t> slot;
  for (std::size_t i = 0; i < 20000; ++i) {
    const KV kv{pool[sim::splitmix64(s) % pool.size()], static_cast<std::int64_t>(i)};
    in.append(kv);
    auto [it, inserted] = slot.try_emplace(kv.key, expected.size());
    if (inserted) {
      expected.push_back(kv);
    } else {
      expected[it->second].value += kv.value;
    }
  }
  // The reduce node as DataSet::reduce_by_key compiles it (typed key and
  // combine inlined), merged as one bucket over the engine's scratch index.
  Engine e(fast_config(2));
  const df::PlanNodePtr reduce =
      DataSet<KV>::from_generator(e, &kv_desc(), 1, [](int, std::vector<KV>&) {})
          .reduce_by_key("sum", OpCost{}, [](const KV& kv) { return kv.key; },
                         [](KV& acc, const KV& kv) { acc.value += kv.value; })
          .node();
  const mem::RecordBatch out = e.combine_by_key(*reduce, {&in, 1});
  ASSERT_EQ(out.count(), expected.size());
  ASSERT_EQ(out.bytes().size(), expected.size() * sizeof(KV));
  EXPECT_EQ(0, std::memcmp(out.bytes().data(), expected.data(), out.bytes().size()));
}

TEST(Engine, RecordOpsMatchPerRecordReference) {
  // A chained map -> filter -> flat_map over partitions of uneven size,
  // some empty. Each output partition must equal, byte for byte, what the
  // same functions give one record at a time, and the stage must charge
  // n x record_time for every chained op, n being that op's input count.
  const std::vector<std::uint64_t> sizes = {0, 513, 0, 64, 1, 2000};
  const auto map_fn = [](const KV& kv) {
    return KV{kv.key * 31 + 7, kv.value ^ 0x5a};
  };
  const auto filter_fn = [](const KV& kv) { return kv.value % 3 != 0; };
  const auto flat_fn = [](const KV& kv, auto& out) {
    for (std::uint64_t j = 0; j < kv.key % 4; ++j) {  // 0..3 records
      out.add(KV{kv.key + j, kv.value * static_cast<std::int64_t>(j + 1)});
    }
  };
  const auto input = [&sizes](std::size_t part) {
    std::vector<KV> rows;
    std::uint64_t state = part;
    for (std::uint64_t i = 0; i < sizes[part]; ++i) {
      rows.push_back(KV{sim::splitmix64(state), static_cast<std::int64_t>(i)});
    }
    return rows;
  };
  const OpCost map_cost{3.0, 16.0}, filter_cost{1.0, 16.0}, flat_cost{5.0, 32.0};

  Engine e(fast_config(2));
  df::DataHandle out;
  double busy_ns = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto source = DataSet<KV>::from_generator(
        eng, &kv_desc(), static_cast<int>(sizes.size()),
        [&input](int part, std::vector<KV>& rows) { rows = input(static_cast<std::size_t>(part)); });
    df::DataHandle in = co_await source.materialize(job);
    auto busy = [&eng] {
      double total = 0;
      for (int w = 1; w <= eng.num_workers(); ++w) {
        total += eng.cluster().metrics().counter_value("engine.task_busy_ns",
                                                        {{"node", std::to_string(w)}});
      }
      return total;
    };
    const double before = busy();
    out = co_await DataSet<KV>::from_handle(eng, in)
              .map<KV>(&kv_desc(), "m", map_cost, map_fn)
              .filter("f", filter_cost, filter_fn)
              .flat_map<KV>(&kv_desc(), "fm", flat_cost, flat_fn)
              .materialize(job);
    busy_ns = busy() - before;
    job.finish();
  });

  const auto& node = e.cluster().node(1);
  ASSERT_EQ(out->parts.size(), sizes.size());
  sim::Duration expected_ns = 0;
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    const std::vector<KV> rows = input(p);
    std::vector<KV> mapped, kept, expected;
    df::FlatCollector<KV> collector(expected);
    for (const KV& kv : rows) mapped.push_back(map_fn(kv));
    for (const KV& kv : mapped) {
      if (filter_fn(kv)) kept.push_back(kv);
    }
    for (const KV& kv : kept) flat_fn(kv, collector);
    expected_ns += static_cast<sim::Duration>(rows.size()) *
                       node.record_time(map_cost.flops, map_cost.bytes) +
                   static_cast<sim::Duration>(mapped.size()) *
                       node.record_time(filter_cost.flops, filter_cost.bytes) +
                   static_cast<sim::Duration>(kept.size()) *
                       node.record_time(flat_cost.flops, flat_cost.bytes);

    const mem::RecordBatch& got = *out->parts[p].batch;
    ASSERT_EQ(got.count(), expected.size()) << "partition " << p;
    ASSERT_EQ(got.bytes().size(), expected.size() * sizeof(KV));
    if (!expected.empty()) {
      EXPECT_EQ(0, std::memcmp(got.bytes().data(), expected.data(), got.bytes().size()))
          << "partition " << p;
    }
  }
  EXPECT_GT(expected_ns, 0);
  EXPECT_EQ(busy_ns, static_cast<double>(expected_ns));
}

// Property sweep: reduce_by_key conserves the value sum for any
// (partitions, records, keys) combination.
class ReducePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, std::uint64_t>> {};

TEST_P(ReducePropertyTest, SumConserved) {
  auto [partitions, records, keys] = GetParam();
  Engine e(fast_config(3));
  std::vector<KV> rows;
  e.run([&, partitions = partitions, records = records, keys = keys](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, partitions, records, keys)
                  .reduce_by_key("sum", OpCost{1.0, 16.0},
                                 [](const KV& kv) { return kv.key; },
                                 [](KV& acc, const KV& kv) { acc.value += kv.value; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  std::int64_t total = 0;
  for (const auto& kv : rows) total += kv.value;
  const auto n = static_cast<std::int64_t>(records);
  EXPECT_EQ(total, n * (n - 1) / 2);
  EXPECT_EQ(rows.size(), std::min<std::uint64_t>(records, keys));
}

INSTANTIATE_TEST_SUITE_P(Grid, ReducePropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(100ULL, 5000ULL),
                                            ::testing::Values(1ULL, 7ULL, 1000ULL)));
