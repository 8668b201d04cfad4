// Tests for the streaming extension: event-level pipelines, back-pressure,
// GPU micro-batching, tumbling windows, latency/throughput accounting.
#include <gtest/gtest.h>

#include "core/streaming.hpp"
#include "gpu/kernel.hpp"
#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace gpu = gflink::gpu;
namespace wl = gflink::workloads;
using sim::Co;

namespace {

struct Ev {
  std::uint64_t key;
  std::int64_t value;
};

const mem::StructDesc& ev_desc() {
  static const mem::StructDesc d = mem::StructDescBuilder("Ev", 8)
                                       .field("key", mem::FieldType::U64, 1, offsetof(Ev, key))
                                       .field("value", mem::FieldType::I64, 1, offsetof(Ev, value))
                                       .build();
  return d;
}

void register_stream_kernel() {
  static const bool once = [] {
    gpu::Kernel k;
    k.name = "streamDouble";
    k.cost.flops_per_item = 4.0;
    k.cost.dram_bytes_per_item = 2.0 * sizeof(Ev);
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* in = reinterpret_cast<const Ev*>(launch.buffers[0].data());
      auto* out = reinterpret_cast<Ev*>(launch.buffers.back().data());
      for (std::size_t i = 0; i < launch.items; ++i) out[i] = Ev{in[i].key, 2 * in[i].value};
    };
    gpu::KernelRegistry::global().register_kernel(k);
    return true;
  }();
  (void)once;
}

df::EngineConfig stream_config(int workers = 2) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = workers;
  cfg.dfs.replication = std::min(2, workers);
  cfg.job_submit_overhead = 0;
  cfg.job_schedule_overhead = 0;
  return cfg;
}

core::EventGenerator ev_generator() {
  return [](std::uint64_t i, std::byte* record) {
    Ev ev{i % 8, static_cast<std::int64_t>(i)};
    std::memcpy(record, &ev, sizeof(ev));
  };
}

core::StreamOp identity_map(double flops = 100.0) {
  core::StreamOp op;
  op.kind = core::StreamOp::Kind::Map;
  op.name = "identity";
  op.out_desc = &ev_desc();
  op.cost = df::OpCost{flops, 2.0 * sizeof(Ev)};
  op.map_fn = [](const mem::RecordBatch& in, mem::RecordBatch& out) {
    out.append_raw(in.record_ptr(0), in.count());
  };
  return op;
}

core::StreamingResult run_pipeline(df::Engine& engine, std::vector<core::StreamOp> ops,
                                   core::StreamingConfig cfg) {
  core::StreamingResult result;
  engine.run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "stream");
    co_await job.submit();
    result = co_await core::run_streaming(eng, job, &ev_desc(), ev_generator(),
                                          std::move(ops), cfg);
    job.finish();
  });
  return result;
}

}  // namespace

TEST(Streaming, AllEventsReachTheSink) {
  df::Engine e(stream_config());
  core::StreamingConfig cfg;
  cfg.total_events = 10'000;
  cfg.events_per_second = 1e7;
  auto r = run_pipeline(e, {identity_map()}, cfg);
  EXPECT_EQ(r.events_in, 10'000u);
  EXPECT_EQ(r.events_out, 10'000u);
  EXPECT_GT(r.throughput_eps, 0.0);
}

TEST(Streaming, UnderloadedThroughputTracksSourceRate) {
  df::Engine e(stream_config());
  core::StreamingConfig cfg;
  cfg.total_events = 20'000;
  cfg.events_per_second = 1e6;  // far below pipeline capacity
  auto r = run_pipeline(e, {identity_map(10.0)}, cfg);
  EXPECT_NEAR(r.throughput_eps, 1e6, 1e5);
  // No backlog: latency stays near the per-event service time.
  EXPECT_LT(r.latency_p99, sim::micros(10));
}

TEST(Streaming, OverloadSaturatesAtServiceRate) {
  df::Engine e(stream_config(1));
  core::StreamingConfig cfg;
  cfg.total_events = 20'000;
  cfg.parallelism = 1;
  cfg.events_per_second = 1e9;  // absurd offered load
  // Service time per event: 25 ns overhead + 5000 flops at the default
  // 4 GFLOP/s = 1.275 us -> saturation at ~784k events/s.
  auto r = run_pipeline(e, {identity_map(5000.0)}, cfg);
  EXPECT_NEAR(r.throughput_eps, 1e9 / 1'275.0, 5e3);
  // Back-pressure, not loss.
  EXPECT_EQ(r.events_out, 20'000u);
  // Saturation: later events queue behind earlier ones -> large latency.
  EXPECT_GT(r.latency_p99, sim::millis(10));
}

TEST(Streaming, GpuMicroBatchComputesCorrectSums) {
  register_stream_kernel();
  df::Engine e(stream_config());
  core::GpuManagerConfig gcfg;
  core::GFlinkRuntime runtime(e, gcfg);

  core::StreamOp gpu_op;
  gpu_op.kind = core::StreamOp::Kind::GpuBatch;
  gpu_op.name = "gpuDouble";
  gpu_op.out_desc = &ev_desc();
  gpu_op.kernel = "streamDouble";
  gpu_op.batch_size = 128;

  core::StreamOp window;
  window.kind = core::StreamOp::Kind::WindowSum;
  window.name = "sum";
  window.out_desc = &ev_desc();
  window.cost = df::OpCost{4.0, 16.0};
  window.key_fn = [](const std::byte* rec) { return reinterpret_cast<const Ev*>(rec)->key; };
  window.combine_fn = [](std::byte* acc, const std::byte* rec) {
    reinterpret_cast<Ev*>(acc)->value += reinterpret_cast<const Ev*>(rec)->value;
  };
  window.window = 1 << 30;  // one window per key: flushes at end of stream

  core::StreamingConfig cfg;
  cfg.total_events = 8'000;
  cfg.events_per_second = 1e7;
  auto r = run_pipeline(e, {gpu_op, window}, cfg);
  EXPECT_EQ(r.events_in, 8'000u);
  EXPECT_GT(r.gpu_batches, 0u);
  // 8 keys x parallelism pipelines worth of window flushes.
  EXPECT_GE(r.events_out, 8u);
  EXPECT_LE(r.events_out, 16u);
}

TEST(Streaming, BatchSizeTradesLatencyForBatches) {
  register_stream_kernel();
  auto run_with_batch = [](std::size_t batch) {
    df::Engine e(stream_config(1));
    core::GpuManagerConfig gcfg;
    core::GFlinkRuntime runtime(e, gcfg);
    core::StreamOp op;
    op.kind = core::StreamOp::Kind::GpuBatch;
    op.name = "gpu";
    op.out_desc = &ev_desc();
    op.kernel = "streamDouble";
    op.batch_size = batch;
    core::StreamingConfig cfg;
    // Low offered rate so both batch sizes keep up: the remaining latency
    // difference is purely the time an event waits for its batch to fill.
    cfg.total_events = 4'000;
    cfg.parallelism = 1;
    cfg.events_per_second = 5e4;
    df::Engine* ep = &e;
    core::StreamingResult r;
    std::vector<core::StreamOp> ops{op};
    ep->run([&](df::Engine& eng) -> Co<void> {
      df::Job job(eng, "s");
      co_await job.submit();
      r = co_await core::run_streaming(eng, job, &ev_desc(), ev_generator(), ops, cfg);
    });
    return r;
  };
  auto small = run_with_batch(32);
  auto large = run_with_batch(1024);
  // Bigger micro-batches: fewer GWork submissions but worse median latency
  // (events wait for their batch to fill).
  EXPECT_GT(small.gpu_batches, large.gpu_batches * 10);
  EXPECT_LT(small.latency_p50, large.latency_p50);
}

TEST(Streaming, WindowSumsAreExact) {
  df::Engine e(stream_config());
  core::StreamOp window;
  window.kind = core::StreamOp::Kind::WindowSum;
  window.name = "sum";
  window.out_desc = &ev_desc();
  window.cost = df::OpCost{4.0, 16.0};
  window.key_fn = [](const std::byte* rec) { return reinterpret_cast<const Ev*>(rec)->key; };
  window.combine_fn = [](std::byte* acc, const std::byte* rec) {
    reinterpret_cast<Ev*>(acc)->value += reinterpret_cast<const Ev*>(rec)->value;
  };
  window.window = 1 << 30;

  core::StreamingConfig cfg;
  cfg.total_events = 10'000;
  cfg.events_per_second = 1e7;

  // Validate the total: sum over all emitted window records must equal the
  // sum of all event values. Capture via a trailing map that accumulates.
  auto total = std::make_shared<std::int64_t>(0);
  core::StreamOp probe = identity_map(1.0);
  probe.name = "probe";
  probe.map_fn = [total](const mem::RecordBatch& in, mem::RecordBatch& out) {
    *total += reinterpret_cast<const Ev*>(in.record_ptr(0))->value;
    out.append_raw(in.record_ptr(0));
  };

  auto r = run_pipeline(e, {window, probe}, cfg);
  EXPECT_EQ(*total, 10'000LL * 9'999 / 2);
  EXPECT_GT(r.events_out, 0u);
}

TEST(Streaming, DeterministicAcrossRuns) {
  auto run_once = [] {
    df::Engine e(stream_config());
    core::StreamingConfig cfg;
    cfg.total_events = 5'000;
    cfg.events_per_second = 5e6;
    auto r = run_pipeline(e, {identity_map(500.0)}, cfg);
    return std::tuple<std::uint64_t, sim::Duration, double>(r.events_out, r.makespan,
                                                            r.latency_p99);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Streaming, ParallelismSplitsTheStream) {
  df::Engine e(stream_config(4));
  core::StreamingConfig cfg;
  cfg.total_events = 10'001;  // deliberately not divisible
  cfg.events_per_second = 1e7;
  auto r = run_pipeline(e, {identity_map()}, cfg);
  EXPECT_EQ(r.events_out, 10'001u);
}
