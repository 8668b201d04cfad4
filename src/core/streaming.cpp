// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "core/streaming.hpp"

#include <algorithm>
#include <unordered_map>


namespace gflink::core {

namespace {

/// One in-flight event: its event time plus the record bytes.
struct Event {
  sim::Time emitted = 0;
  std::vector<std::byte> bytes;
};

using EventChannel = sim::Channel<Event>;

/// All state of one pipeline instance (kept alive until its sink ends).
struct Pipeline {
  int worker = 0;
  std::vector<std::unique_ptr<EventChannel>> channels;  // ops.size() + 1
  std::uint64_t events_in = 0;
  std::uint64_t events_out = 0;
  std::uint64_t gpu_batches = 0;
  std::vector<double> latencies_ns;
};

sim::Co<void> source_loop(Engine& engine, Pipeline& pl, EventGenerator generate,
                          const mem::StructDesc* desc, std::uint64_t first, std::uint64_t count,
                          std::uint64_t stride_events, sim::Duration interval,
                          sim::Time start) {
  EventChannel& out = *pl.channels.front();
  const std::size_t record_bytes = desc->stride();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = first + i * stride_events;
    const sim::Time target = start + static_cast<sim::Duration>(i) * interval;
    if (engine.now() < target) {
      co_await engine.sim().delay(target - engine.now());
    }
    Event ev;
    ev.emitted = target;  // event time: when the event occurred at the edge
    ev.bytes.resize(record_bytes);
    generate(index, ev.bytes.data());
    ++pl.events_in;
    co_await out.send(std::move(ev));  // bounded: back-pressure stalls here
  }
  out.close();
}

sim::Co<void> map_loop(Engine& engine, Pipeline& pl, const StreamOp& op,
                       const mem::StructDesc* in_desc, EventChannel& in, EventChannel& out) {
  const net::Node& node = engine.cluster().node(pl.worker);
  const sim::Duration per_event = node.record_time(op.cost.flops, op.cost.bytes);
  const std::size_t out_stride = op.out_desc->stride();
  while (true) {
    auto ev = co_await in.recv();
    if (!ev) break;
    co_await engine.sim().delay(per_event);
    mem::RecordBatch event(in_desc);
    event.append_raw(ev->bytes.data());
    mem::RecordBatch scratch(op.out_desc);
    op.map_fn(event, scratch);
    for (std::size_t r = 0; r < scratch.count(); ++r) {
      Event next;
      next.emitted = ev->emitted;
      next.bytes.assign(scratch.record_ptr(r), scratch.record_ptr(r) + out_stride);
      co_await out.send(std::move(next));
    }
  }
  out.close();
}

/// Flush the accumulated batch through one GWork. A named coroutine (not a
/// capturing lambda, gflint C1): it is awaited in the caller's scope, and
/// every reference parameter outlives the await.
sim::Co<void> flush_gpu_batch(Job& job, Pipeline& pl, const StreamOp& op,
                              mem::MemoryManager& memory, GpuManager& manager,
                              EventChannel& out, std::vector<Event>& batch,
                              std::size_t stride) {
  if (batch.empty()) co_return;
  const std::size_t n = batch.size();
  auto in_buf = memory.allocate_unbudgeted(n * stride);  // pinned off-heap
  for (std::size_t i = 0; i < n; ++i) {
    in_buf->write(i * stride, batch[i].bytes.data(), stride);
  }
  auto out_buf = memory.allocate_unbudgeted(n * stride);

  auto work = std::make_shared<GWork>();
  work->execute_name = op.kernel;
  work->layout = op.layout;
  work->size = n;
  work->job_id = job.id();
  work->span = job.span();
  GBuffer ib;
  ib.host = in_buf;
  ib.bytes = n * stride;
  work->inputs.push_back(ib);
  GBuffer ob;
  ob.host = out_buf;
  ob.bytes = n * stride;
  work->outputs.push_back(ob);
  co_await manager.run(work);
  ++pl.gpu_batches;

  for (std::size_t i = 0; i < n; ++i) {
    Event next;
    next.emitted = batch[i].emitted;
    next.bytes.assign(out_buf->data() + i * stride, out_buf->data() + (i + 1) * stride);
    co_await out.send(std::move(next));
  }
  batch.clear();
}

sim::Co<void> gpu_batch_loop(Engine& engine, Job& job, Pipeline& pl, const StreamOp& op,
                             EventChannel& in, EventChannel& out) {
  auto* manager = static_cast<GpuManager*>(engine.worker_state(pl.worker).extension());
  GFLINK_CHECK_MSG(manager != nullptr, "GpuBatch operator needs a GFlinkRuntime on the worker");
  const std::size_t stride = op.out_desc->stride();
  mem::MemoryManager& memory = engine.worker_state(pl.worker).memory();

  std::vector<Event> batch;
  batch.reserve(op.batch_size);

  while (true) {
    auto ev = co_await in.recv();
    if (!ev) break;
    batch.push_back(std::move(*ev));
    if (batch.size() >= op.batch_size) {
      co_await flush_gpu_batch(job, pl, op, memory, *manager, out, batch, stride);
    }
  }
  // Partial tail batch at end of stream.
  co_await flush_gpu_batch(job, pl, op, memory, *manager, out, batch, stride);
  out.close();
}

/// One keyed window's accumulator.
struct WindowState {
  std::vector<std::byte> accumulator;
  std::size_t count = 0;
  sim::Time last_emitted = 0;
};

/// Emit one full (or end-of-stream partial) window downstream. Named
/// coroutine instead of a capturing lambda (gflint C1); awaited in-scope.
sim::Co<void> emit_window(EventChannel& out, WindowState& w) {
  Event next;
  next.emitted = w.last_emitted;
  next.bytes = w.accumulator;
  w.count = 0;
  co_await out.send(std::move(next));
}

sim::Co<void> window_loop(Engine& engine, Pipeline& pl, const StreamOp& op, EventChannel& in,
                          EventChannel& out) {
  const net::Node& node = engine.cluster().node(pl.worker);
  const sim::Duration per_event = node.record_time(op.cost.flops, op.cost.bytes);
  const std::size_t stride = op.out_desc->stride();
  std::unordered_map<std::uint64_t, WindowState> windows;

  while (true) {
    auto ev = co_await in.recv();
    if (!ev) break;
    co_await engine.sim().delay(per_event);
    const std::uint64_t key = op.key_fn(ev->bytes.data());
    WindowState& w = windows[key];
    if (w.count == 0) {
      w.accumulator.assign(ev->bytes.begin(), ev->bytes.end());
      w.count = 1;
    } else {
      op.combine_fn(w.accumulator.data(), ev->bytes.data());
      ++w.count;
    }
    w.last_emitted = ev->emitted;
    if (w.count >= op.window) {
      co_await emit_window(out, w);
    }
  }
  // End of stream: flush partial windows.
  for (auto& [key, w] : windows) {
    if (w.count > 0) co_await emit_window(out, w);
  }
  (void)stride;
  out.close();
}

sim::Co<void> sink_loop(Engine& engine, Pipeline& pl, EventChannel& in) {
  while (true) {
    auto ev = co_await in.recv();
    if (!ev) break;
    ++pl.events_out;
    pl.latencies_ns.push_back(static_cast<double>(engine.now() - ev->emitted));
  }
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

sim::Co<StreamingResult> run_streaming(Engine& engine, Job& job, const mem::StructDesc* in_desc,
                                       EventGenerator generate, std::vector<StreamOp> ops,
                                       const StreamingConfig& config) {
  GFLINK_CHECK_MSG(job.submitted(), "streaming job not submitted");
  GFLINK_CHECK(config.events_per_second > 0);
  const int parallelism = config.parallelism > 0 ? config.parallelism : engine.num_workers();
  const auto interval = static_cast<sim::Duration>(
      1e9 * static_cast<double>(parallelism) / config.events_per_second);

  const sim::Time start = engine.now();
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  sim::WaitGroup done(engine.sim());

  for (int p = 0; p < parallelism; ++p) {
    auto pl = std::make_unique<Pipeline>();
    pl->worker = 1 + p % engine.num_workers();
    for (std::size_t c = 0; c <= ops.size(); ++c) {
      pl->channels.push_back(
          std::make_unique<EventChannel>(engine.sim(), config.queue_capacity));
    }
    // Per-partition share of the event stream (strided global indices so
    // the multiset is independent of parallelism).
    const std::uint64_t count =
        config.total_events / static_cast<std::uint64_t>(parallelism) +
        (static_cast<std::uint64_t>(p) <
                 config.total_events % static_cast<std::uint64_t>(parallelism)
             ? 1
             : 0);

    engine.sim().spawn(source_loop(engine, *pl, generate, in_desc,
                                   static_cast<std::uint64_t>(p), count,
                                   static_cast<std::uint64_t>(parallelism), interval, start));
    const mem::StructDesc* desc = in_desc;  // records entering ops[o]
    for (std::size_t o = 0; o < ops.size(); ++o) {
      EventChannel& in = *pl->channels[o];
      EventChannel& out = *pl->channels[o + 1];
      switch (ops[o].kind) {
        case StreamOp::Kind::Map:
          engine.sim().spawn(map_loop(engine, *pl, ops[o], desc, in, out));
          break;
        case StreamOp::Kind::GpuBatch:
          engine.sim().spawn(gpu_batch_loop(engine, job, *pl, ops[o], in, out));
          break;
        case StreamOp::Kind::WindowSum:
          engine.sim().spawn(window_loop(engine, *pl, ops[o], in, out));
          break;
      }
      desc = ops[o].out_desc;
    }
    done.add();
    engine.sim().spawn([](Engine& eng, Pipeline& pipe, sim::WaitGroup& join) -> sim::Co<void> {
      co_await sink_loop(eng, pipe, *pipe.channels.back());
      join.done();
    }(engine, *pl, done));
    pipelines.push_back(std::move(pl));
  }
  co_await done.wait();

  StreamingResult result;
  std::vector<double> all_latencies;
  for (const auto& pl : pipelines) {
    result.events_in += pl->events_in;
    result.events_out += pl->events_out;
    result.gpu_batches += pl->gpu_batches;
    for (double l : pl->latencies_ns) {
      result.latency.add(l);
      all_latencies.push_back(l);
    }
  }
  result.makespan = engine.now() - start;
  result.throughput_eps = result.makespan > 0
                              ? static_cast<double>(result.events_out) /
                                    sim::to_seconds(result.makespan)
                              : 0.0;
  std::sort(all_latencies.begin(), all_latencies.end());
  result.latency_p50 = percentile(all_latencies, 0.50);
  result.latency_p99 = percentile(all_latencies, 0.99);
  co_return result;
}

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
