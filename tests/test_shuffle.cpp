// Tests for the block-granular shuffle subsystem: deterministic
// partitioning with map-side combine, credit backpressure toward a slow
// receiver, the spill-to-DFS round trip under a tight receiver budget, and
// retry-with-backoff on injected transfer faults — at the service level
// and end-to-end through the engine.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"
#include "shuffle/shuffle_service.hpp"
#include "sim/random.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace net = gflink::net;
namespace dfs = gflink::dfs;
namespace df = gflink::dataflow;
namespace sh = gflink::shuffle;
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

mem::RecordBatch make_batch(const std::vector<KV>& rows) {
  mem::RecordBatch b(&kv_desc());
  for (const KV& kv : rows) b.append_raw(&kv);
  return b;
}

KV row_at(const mem::RecordBatch& b, std::size_t i) {
  KV kv;
  std::memcpy(&kv, b.record_ptr(i), sizeof(KV));
  return kv;
}

std::uint64_t shuffle_key(const std::byte* rec) {
  std::uint64_t k;
  std::memcpy(&k, rec, sizeof(k));
  return k;
}

void combine_kv(std::byte* acc, const std::byte* rec) {
  KV a, r;
  std::memcpy(&a, acc, sizeof(KV));
  std::memcpy(&r, rec, sizeof(KV));
  a.value += r.value;
  std::memcpy(acc, &a, sizeof(KV));
}

/// A standalone service over a small cluster; partitions are owned
/// round-robin by workers 1..N.
struct Harness {
  explicit Harness(sh::ShuffleConfig cfg, int workers = 4)
      : cluster(simulation, make_cluster(workers)), gdfs(cluster),
        service(simulation, cluster, gdfs, std::move(cfg),
                [workers](int t) { return 1 + t % workers; }) {}

  static net::ClusterConfig make_cluster(int workers) {
    net::ClusterConfig c;
    c.num_workers = workers;
    return c;
  }

  sim::Simulation simulation;
  net::Cluster cluster;
  dfs::Gdfs gdfs;
  sh::ShuffleService service;
};

std::vector<KV> skewed_rows(int n) {
  std::vector<KV> rows;
  rows.reserve(static_cast<std::size_t>(n));
  std::uint64_t s = 7;
  for (int i = 0; i < n; ++i) {
    rows.push_back(KV{sim::splitmix64(s) % 37, static_cast<std::int64_t>(i)});
  }
  return rows;
}

TEST(Shuffle, PartitionWithCombineIsExactAndDeterministic) {
  Harness h(sh::ShuffleConfig{});
  sh::ShuffleSession session(h.service, 4, "t");
  const std::vector<KV> rows = skewed_rows(500);
  mem::RecordBatch in = make_batch(rows);
  const sh::CombineFn combiner = &combine_kv;

  auto buckets = session.partition(in, &kv_desc(), &shuffle_key, &combiner);
  ASSERT_EQ(buckets.size(), 4u);

  // Combined: every key appears exactly once, in its hash-assigned bucket,
  // carrying the sum of its records' values.
  std::map<std::uint64_t, std::int64_t> expected;
  for (const KV& kv : rows) expected[kv.key] += kv.value;
  std::map<std::uint64_t, std::int64_t> got;
  for (int t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < buckets[static_cast<std::size_t>(t)].count(); ++i) {
      const KV kv = row_at(buckets[static_cast<std::size_t>(t)], i);
      std::uint64_t s = kv.key;
      EXPECT_EQ(static_cast<int>(sim::splitmix64(s) % 4), t);
      EXPECT_TRUE(got.emplace(kv.key, kv.value).second) << "key duplicated across buckets";
    }
  }
  EXPECT_EQ(got, expected);

  // Bit-identical across calls (first-occurrence order is deterministic).
  auto again = session.partition(in, &kv_desc(), &shuffle_key, &combiner);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(again[t].count(), buckets[t].count());
    for (std::size_t i = 0; i < again[t].count(); ++i) {
      EXPECT_EQ(0, std::memcmp(again[t].record_ptr(i), buckets[t].record_ptr(i), sizeof(KV)));
    }
  }

  // Without a combiner every record survives.
  auto raw = session.partition(in, &kv_desc(), &shuffle_key, nullptr);
  std::size_t total = 0;
  for (const auto& b : raw) total += b.count();
  EXPECT_EQ(total, rows.size());
}

/// `count` rows over `distinct` keys that stress the flat combine index: 0
/// and ~0ULL (all valid keys), strided keys that share their low bits
/// (collide modulo any power-of-two table size), then random keys. With
/// thousands of distinct keys the table grows several times. Keys repeat,
/// so combining does real work.
std::vector<KV> stress_rows(std::size_t distinct, std::size_t count, std::uint64_t seed) {
  std::vector<std::uint64_t> pool = {0, ~0ULL, 1, ~0ULL - 1};
  for (std::uint64_t i = 1; i <= 64; ++i) {
    pool.push_back(i << 16);
    pool.push_back(i << 32);
    pool.push_back(i << 58);
  }
  std::uint64_t s = seed;
  if (pool.size() > distinct) pool.resize(distinct);
  while (pool.size() < distinct) pool.push_back(sim::splitmix64(s));
  std::vector<KV> rows;
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back(KV{pool[sim::splitmix64(s) % pool.size()], static_cast<std::int64_t>(i)});
  }
  return rows;
}

std::vector<KV> index_stress_rows() { return stress_rows(3000, 20000, 11); }

/// The per-record reference combine: a std::map per bucket from key to
/// accumulator slot, each key's bucket picked by the shuffle's hash.
std::vector<std::vector<KV>> ordered_map_combine(const std::vector<KV>& rows,
                                                 std::size_t partitions) {
  std::vector<std::vector<KV>> expected(partitions);
  std::vector<std::map<std::uint64_t, std::size_t>> slots(partitions);
  for (const KV& kv : rows) {
    std::uint64_t s = kv.key;
    const auto t = static_cast<std::size_t>(sim::splitmix64(s) % partitions);
    auto [it, inserted] = slots[t].try_emplace(kv.key, expected[t].size());
    if (inserted) {
      expected[t].push_back(kv);
    } else {
      expected[t][it->second].value += kv.value;
    }
  }
  return expected;
}

TEST(Shuffle, CombineIndexMatchesOrderedMapReference) {
  Harness h(sh::ShuffleConfig{});
  const int partitions = 5;
  sh::ShuffleSession session(h.service, partitions, "t");
  const std::vector<KV> rows = index_stress_rows();
  const sh::CombineFn combiner = &combine_kv;
  auto buckets = session.partition(make_batch(rows), &kv_desc(), &shuffle_key, &combiner);

  const std::vector<std::vector<KV>> expected = ordered_map_combine(rows, partitions);
  ASSERT_EQ(buckets.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    ASSERT_EQ(buckets[t].count(), expected[t].size());
    ASSERT_EQ(buckets[t].bytes().size(), expected[t].size() * sizeof(KV));
    EXPECT_EQ(0, std::memcmp(buckets[t].bytes().data(), expected[t].data(),
                             expected[t].size() * sizeof(KV)))
        << "bucket " << t;
  }
}

TEST(Shuffle, CreditWindowBoundsInFlightBlocksAndStallsSenders) {
  sh::ShuffleConfig cfg;
  cfg.mode = sh::ShuffleMode::Pipelined;  // credits are a pipelined-transport mechanism
  cfg.block_bytes = 64;  // a 500-record bucket becomes ~125 blocks
  cfg.credits_per_partition = 2;
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");

  h.simulation.spawn([](sh::ShuffleSession& s) -> Co<void> {
    auto buckets = s.partition(make_batch(skewed_rows(500)), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));  // partition 0 is owned by worker 1
    co_await s.finish();
  }(*session));
  h.simulation.run();

  EXPECT_LE(h.service.max_blocks_in_flight(), 2);
  EXPECT_GE(h.cluster.metrics().counter_value("shuffle.credit_stalls"), 1.0);
  EXPECT_GE(h.cluster.metrics().counter_value("shuffle.blocks"), 60.0);
}

TEST(Shuffle, SpillRoundTripKeepsRecordsIntact) {
  sh::ShuffleConfig cfg;
  cfg.receiver_budget_bytes = 1024;  // force the second deposit to spill
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
  const std::vector<KV> rows = skewed_rows(200);  // 3200 B > budget

  std::vector<KV> taken;
  h.simulation.spawn([](sh::ShuffleSession& s, const std::vector<KV>& in,
                        std::vector<KV>& out) -> Co<void> {
    auto buckets = s.partition(make_batch(in), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));
    co_await s.finish();
    // Resident bytes stay bounded by the budget plus one in-flight bucket.
    auto batches = co_await s.take(0, 1);
    for (const auto& b : batches) {
      for (std::size_t i = 0; i < b.count(); ++i) out.push_back(row_at(b, i));
    }
    // Checked after take(): under the async offload the byte accounting
    // runs worker-side when a block lands, which may be after finish();
    // take() awaits every in-flight block, so by here it is final.
    EXPECT_GT(s.spilled_bytes(), 0u);
  }(*session, rows, taken));
  h.simulation.run();

  EXPECT_EQ(taken.size(), rows.size());
  // Same multiset of records out as in (order may differ across deposits).
  auto key_of = [](const KV& kv) { return std::make_pair(kv.key, kv.value); };
  std::multiset<std::pair<std::uint64_t, std::int64_t>> in_set, out_set;
  for (const KV& kv : rows) in_set.insert(key_of(kv));
  for (const KV& kv : taken) out_set.insert(key_of(kv));
  EXPECT_EQ(in_set, out_set);

  const auto& m = h.cluster.metrics();
  EXPECT_GT(m.counter_value("shuffle.spill_bytes"), 0.0);
  EXPECT_EQ(m.counter_value("shuffle.spill_bytes"), m.counter_value("shuffle.unspill_bytes"));
  EXPECT_EQ(h.service.resident_bytes(1), 0u);  // all taken
}

TEST(Shuffle, InjectedTransferFaultsRetryWithBackoff) {
  sh::ShuffleConfig cfg;
  cfg.retry_backoff = sim::millis(10);
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
  h.service.inject_transfer_faults(2);

  h.simulation.spawn([](sh::ShuffleSession& s) -> Co<void> {
    auto buckets = s.partition(make_batch(skewed_rows(50)), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));
    co_await s.finish();
  }(*session));
  h.simulation.run();

  EXPECT_EQ(h.service.pending_injected_faults(), 0);
  const auto& m = h.cluster.metrics();
  EXPECT_EQ(m.counter_value("shuffle.transfer_faults"), 2.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_retries"), 2.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_aborts"), 0.0);
  // Two consecutive faults on the first block: backoff of 10 ms then 20 ms.
  EXPECT_GE(h.simulation.now(), sim::millis(30));
}

// ---- End-to-end through the engine -----------------------------------------

df::EngineConfig tiny_engine_config() {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = 4;
  cfg.dfs.replication = 2;
  cfg.job_submit_overhead = 0;
  cfg.job_schedule_overhead = 0;
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  return cfg;
}

/// Sum values per key over a shuffled reduce; returns total over all keys.
std::int64_t run_reduce_job(df::Engine& engine) {
  std::int64_t total = 0;
  engine.run([&total](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "shuffle-e2e");
    co_await job.submit();
    auto ds = df::DataSet<KV>::from_generator(
                  eng, &kv_desc(), 8,
                  [](int part, std::vector<KV>& out) {
                    for (std::uint64_t i = static_cast<std::uint64_t>(part); i < 4000; i += 8) {
                      out.push_back(KV{i % 997, static_cast<std::int64_t>(i)});
                    }
                  })
                  .reduce_by_key("sum", df::OpCost{1.0, 16.0},
                                 [](const KV& kv) { return kv.key; },
                                 [](KV& acc, const KV& kv) { acc.value += kv.value; });
    auto rows = co_await ds.collect(job);
    job.finish();
    for (const KV& kv : rows) total += kv.value;
  });
  return total;
}

constexpr std::int64_t kExpectedTotal = 4000LL * 3999 / 2;

// ---- The keyed combine loop (map side, merge, reused index) -----------------

/// The reduce node as DataSet::reduce_by_key compiles it: typed key and
/// combine inlined into the per-batch keyed combine.
df::PlanNodePtr typed_sum_node(df::Engine& engine) {
  return df::DataSet<KV>::from_generator(engine, &kv_desc(), 1, [](int, std::vector<KV>&) {})
      .reduce_by_key("sum", df::OpCost{}, [](const KV& kv) { return kv.key; },
                     [](KV& acc, const KV& kv) { acc.value += kv.value; })
      .node();
}

/// Map-side combine of `in` into `partitions` buckets through `scratch`.
std::vector<mem::RecordBatch> map_side(const df::OpNode& reduce, const mem::RecordBatch& in,
                                       sh::CombineScratch& scratch, std::size_t partitions) {
  std::vector<mem::RecordBatch> buckets(partitions, mem::RecordBatch(&kv_desc()));
  reduce.keyed_combine({&in, 1}, scratch, buckets);
  return buckets;
}

/// The reduce-side merge as it was before the keyed combine: concatenate
/// the deposited buckets, then fold record by record through type-erased
/// key and combine functions, each key into the first record seen with it.
mem::RecordBatch old_combine_by_key(const std::vector<mem::RecordBatch>& deposited) {
  mem::RecordBatch all(&kv_desc());
  for (const auto& b : deposited) {
    if (!b.empty()) all.append_raw(b.record_ptr(0), b.count());
  }
  const sh::KeyFn key = &shuffle_key;
  const sh::CombineFn combine = &combine_kv;
  mem::RecordBatch acc(&kv_desc());
  std::map<std::uint64_t, std::size_t> slot;
  for (std::size_t i = 0; i < all.count(); ++i) {
    const std::byte* rec = all.record_ptr(i);
    const auto [it, inserted] = slot.try_emplace(key(rec), acc.count());
    if (inserted) {
      acc.append_raw(rec);
    } else {
      combine(acc.record_ptr(it->second), rec);
    }
  }
  return acc;
}

TEST(Shuffle, TypedMapSideCombineMatchesOrderedMapReference) {
  df::Engine engine(tiny_engine_config());
  const df::PlanNodePtr reduce = typed_sum_node(engine);
  const std::vector<KV> rows = index_stress_rows();
  const mem::RecordBatch in = make_batch(rows);
  const std::size_t partitions = 40;
  sh::CombineScratch scratch;
  const std::vector<mem::RecordBatch> buckets = map_side(*reduce, in, scratch, partitions);

  const std::vector<std::vector<KV>> expected = ordered_map_combine(rows, partitions);
  ASSERT_EQ(buckets.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    ASSERT_EQ(buckets[t].count(), expected[t].size());
    ASSERT_EQ(buckets[t].bytes().size(), expected[t].size() * sizeof(KV));
    EXPECT_EQ(0, std::memcmp(buckets[t].bytes().data(), expected[t].data(),
                             expected[t].size() * sizeof(KV)))
        << "bucket " << t;
  }

  // The std::function instantiation behind ShuffleSession::partition gives
  // the same bytes.
  sh::ShuffleSession session(engine.shuffle_service(), static_cast<int>(partitions), "t");
  const sh::CombineFn combiner = &combine_kv;
  const auto erased = session.partition(in, &kv_desc(), &shuffle_key, &combiner);
  ASSERT_EQ(erased.size(), partitions);
  for (std::size_t t = 0; t < partitions; ++t) {
    EXPECT_EQ(erased[t].bytes(), buckets[t].bytes()) << "bucket " << t;
  }
}

TEST(Shuffle, OneBucketMergeMatchesOldCombineByKey) {
  df::Engine engine(tiny_engine_config());
  const df::PlanNodePtr reduce = typed_sum_node(engine);
  const std::vector<KV> rows = index_stress_rows();
  // Deposited buckets of uneven size, some empty, covering every row once.
  std::vector<mem::RecordBatch> deposited;
  std::size_t next = 0;
  for (const std::size_t n : {0, 1, 4999, 0, 7000, 3, 7997}) {
    deposited.push_back(make_batch({rows.begin() + static_cast<std::ptrdiff_t>(next),
                                    rows.begin() + static_cast<std::ptrdiff_t>(next + n)}));
    next += n;
  }
  ASSERT_EQ(next, rows.size());

  const mem::RecordBatch merged = engine.combine_by_key(*reduce, deposited);
  const mem::RecordBatch old = old_combine_by_key(deposited);
  ASSERT_EQ(merged.count(), old.count());
  EXPECT_EQ(merged.bytes(), old.bytes());
  const std::vector<KV> expected = ordered_map_combine(rows, 1).front();
  ASSERT_EQ(merged.bytes().size(), expected.size() * sizeof(KV));
  EXPECT_EQ(0, std::memcmp(merged.bytes().data(), expected.data(), merged.bytes().size()));
}

TEST(Shuffle, ReusedCombineScratchMatchesFreshScratch) {
  // One engine's scratch serves every combine in turn: a merge, a typed
  // map-side combine and a type-erased partition per input, over inputs of
  // 3000 keys, 1 key, no records, then 3000 other keys.
  df::Engine engine(tiny_engine_config());
  const df::PlanNodePtr reduce = typed_sum_node(engine);
  sh::CombineScratch& shared = engine.shuffle_service().combine_scratch();
  const std::size_t partitions = 40;
  sh::ShuffleSession session(engine.shuffle_service(), static_cast<int>(partitions), "t");
  const sh::CombineFn combiner = &combine_kv;
  const std::vector<std::vector<KV>> inputs = {
      stress_rows(3000, 20000, 21), stress_rows(1, 500, 22), {}, stress_rows(3000, 20000, 23)};
  std::size_t grown = 0;
  for (std::size_t call = 0; call < inputs.size(); ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const mem::RecordBatch in = make_batch(inputs[call]);

    sh::CombineScratch fresh_merge;
    mem::RecordBatch want_merged(&kv_desc());
    reduce->keyed_combine({&in, 1}, fresh_merge, {&want_merged, 1});
    EXPECT_EQ(engine.combine_by_key(*reduce, {&in, 1}).bytes(), want_merged.bytes());

    sh::CombineScratch fresh_map;
    const auto want = map_side(*reduce, in, fresh_map, partitions);
    const auto got = map_side(*reduce, in, shared, partitions);
    const auto erased = session.partition(in, &kv_desc(), &shuffle_key, &combiner);
    for (std::size_t t = 0; t < partitions; ++t) {
      EXPECT_EQ(got[t].bytes(), want[t].bytes()) << "bucket " << t;
      EXPECT_EQ(erased[t].bytes(), want[t].bytes()) << "bucket " << t;
    }
    EXPECT_EQ(shared.keys.size(), fresh_map.keys.size());
    // The shared index keeps the capacity its largest combine needed.
    if (call == 0) grown = shared.keys.capacity();
    EXPECT_EQ(shared.keys.capacity(), grown);
  }
  EXPECT_GE(grown, 2u * 3000);
}

TEST(Shuffle, EngineRetriesInjectedFaultsToExactResult) {
  df::Engine engine(tiny_engine_config());
  engine.shuffle_service().inject_transfer_faults(3);
  EXPECT_EQ(run_reduce_job(engine), kExpectedTotal);
  EXPECT_EQ(engine.shuffle_service().pending_injected_faults(), 0);
  const auto& m = engine.metrics();
  EXPECT_EQ(m.counter_value("shuffle.transfer_faults"), 3.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_aborts"), 0.0);
}

TEST(Shuffle, AllTransportsAgreeSpillOrNot) {
  // The exchange transport is a pure scheduling choice: every mode produces
  // the same reduced result, pipelining is never slower than the barrier,
  // and the one-sided RDMA-style exchange is never slower than pipelined.
  df::EngineConfig barrier_cfg = tiny_engine_config();
  barrier_cfg.shuffle.mode = sh::ShuffleMode::Barrier;
  barrier_cfg.shuffle.spill_enabled = false;
  df::Engine barrier(barrier_cfg);
  EXPECT_EQ(run_reduce_job(barrier), kExpectedTotal);

  df::EngineConfig pipelined_cfg = tiny_engine_config();
  pipelined_cfg.shuffle.mode = sh::ShuffleMode::Pipelined;
  df::Engine pipelined(pipelined_cfg);
  EXPECT_EQ(run_reduce_job(pipelined), kExpectedTotal);
  EXPECT_LE(pipelined.now(), barrier.now());

  // One-sided is the engine default; the explicit mode must agree with it.
  df::Engine one_sided(tiny_engine_config());
  EXPECT_EQ(run_reduce_job(one_sided), kExpectedTotal);
  EXPECT_LE(one_sided.now(), pipelined.now());
  EXPECT_GT(one_sided.metrics().counter_value("shuffle.one_sided_writes"), 0.0);
  EXPECT_GT(one_sided.metrics().counter_value("net.rdma_bytes"), 0.0);
  EXPECT_EQ(one_sided.metrics().counter_value("shuffle.bytes"), 0.0);  // no block path

  df::EngineConfig spill_cfg = tiny_engine_config();
  spill_cfg.shuffle.receiver_budget_bytes = 256;
  df::Engine spilling(spill_cfg);
  EXPECT_EQ(run_reduce_job(spilling), kExpectedTotal);
  EXPECT_GT(spilling.metrics().counter_value("shuffle.spill_bytes"), 0.0);
  EXPECT_GE(spilling.now(), one_sided.now());  // spilling still costs time
}

TEST(Shuffle, AsyncSpillAccountsBytesExactlyOnce) {
  // Regression guard for the detached-offload double-count hazard: the
  // shuffle.spill_bytes counter is bumped at exactly one point (worker-side
  // on land, never at enqueue), so both spill paths see identical volumes,
  // every spilled byte is un-spilled at take(), and the async offload's
  // per-tier byte totals reconcile with the shuffle-level counter.
  auto run_path = [](bool async_path, double* spill_bytes, std::uint64_t* session_bytes,
                     sim::Time* elapsed) {
    sh::ShuffleConfig cfg;
    cfg.receiver_budget_bytes = 1024;
    cfg.spill_async = async_path;
    Harness h(cfg, 2);
    auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
    std::size_t taken = 0;
    h.simulation.spawn([](sh::ShuffleSession& s, std::size_t& n) -> Co<void> {
      auto buckets = s.partition(make_batch(skewed_rows(200)), &kv_desc(), &shuffle_key, nullptr);
      co_await s.send(2, std::move(buckets));
      co_await s.finish();
      auto batches = co_await s.take(0, 1);
      for (const auto& b : batches) n += b.count();
    }(*session, taken));
    h.simulation.run();
    EXPECT_EQ(taken, 200u);
    const auto& m = h.cluster.metrics();
    *spill_bytes = m.counter_value("shuffle.spill_bytes");
    EXPECT_EQ(*spill_bytes, m.counter_value("shuffle.unspill_bytes"));
    *session_bytes = session->spilled_bytes();
    *elapsed = h.simulation.now();
    if (async_path) {
      double offloaded = 0.0;
      for (const char* tier : {"memory", "disk", "dfs"}) {
        offloaded += m.counter_value("spill_offload_bytes_total", {{"tier", tier}});
      }
      EXPECT_EQ(offloaded, *spill_bytes);
    }
  };
  double sync_bytes = 0.0, async_bytes = 0.0;
  std::uint64_t sync_session = 0, async_session = 0;
  sim::Time sync_t = 0, async_t = 0;
  run_path(false, &sync_bytes, &sync_session, &sync_t);
  run_path(true, &async_bytes, &async_session, &async_t);
  EXPECT_GT(async_bytes, 0.0);
  EXPECT_EQ(async_bytes, sync_bytes);  // same volume, each counted once
  EXPECT_EQ(async_session, static_cast<std::uint64_t>(async_bytes));
  EXPECT_EQ(sync_session, static_cast<std::uint64_t>(sync_bytes));
  EXPECT_LE(async_t, sync_t);  // the offload moved tier I/O off the path
}

}  // namespace
