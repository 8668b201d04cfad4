// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "core/gdst.hpp"

#include <cstring>
#include <deque>

namespace gflink::core {

namespace {

/// One submitted-but-unretired GPU block of a mapPartition task.
struct BlockResult {
  GWorkPtr work;
  std::size_t out_records = 0;
  mem::HBufferPtr out_buffer;
};

/// Retire the oldest in-flight block: await completion, append its output
/// records in one copy, and release its host buffers back to the page
/// budget. Bounding the in-flight window keeps the task's footprint
/// independent of partition size (and free of budget deadlocks). A named
/// coroutine instead of a capturing lambda (gflint C1); awaited in-scope.
sim::Co<void> retire_oldest_block(std::deque<BlockResult>& in_flight, mem::RecordBatch& out) {
  BlockResult r = std::move(in_flight.front());
  in_flight.pop_front();
  co_await r.work->done->wait();
  out.append_raw(r.out_buffer->data(), r.out_records);
}

}  // namespace

sim::Co<void> gpu_map_partition_run(dataflow::TaskContext& ctx, const GpuOpSpec& spec,
                                    const mem::RecordBatch& in, mem::RecordBatch& out) {
  GpuManager& mgr = GpuManager::of(ctx);
  if (in.count() == 0) co_return;
  GFLINK_CHECK_MSG(in.layout() == mem::Layout::AoS, "GDST blocks are built from AoS pages");

  const std::size_t stride = in.desc().stride();
  const std::size_t out_stride = out.desc().stride();
  const std::size_t block_bytes =
      spec.block_bytes > 0 ? spec.block_bytes : ctx.engine().config().page_size;
  // A GStruct must not straddle a page (paper §5.1).
  const std::size_t records_per_block = std::max<std::size_t>(1, block_bytes / stride);
  const std::size_t blocks = (in.count() + records_per_block - 1) / records_per_block;

  // Task-level shared pieces: broadcast buffers and kernel parameters.
  std::vector<GBuffer> aux =
      spec.make_aux ? spec.make_aux(ctx) : std::vector<GBuffer>{};
  std::shared_ptr<void> params = spec.make_params ? spec.make_params(ctx) : nullptr;

  mem::MemoryManager& memory = ctx.worker_state().memory();

  std::deque<BlockResult> in_flight;
  const std::size_t window = std::max<std::size_t>(
      16, 4 * static_cast<std::size_t>(mgr.num_devices() * mgr.streams().streams_per_gpu()));

  // Producer: assemble and submit one GWork per block. Submission does not
  // wait, so blocks pipeline through the GStreamManager's streams.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * records_per_block;
    const std::size_t n = std::min(records_per_block, in.count() - first);
    const std::size_t in_bytes = n * stride;
    const std::size_t out_records = spec.out_items ? spec.out_items(n) : n;
    const std::size_t out_bytes = out_records * out_stride;

    // The input block aliases the partition's off-heap page: zero copy in
    // the modeled system; here we materialize the block buffer to give the
    // kernel a concrete span.
    mem::HBufferPtr in_buf = co_await memory.allocate(in_bytes);  // pinned off-heap
    in_buf->write(0, in.record_ptr(first), in_bytes);

    mem::HBufferPtr out_buf = co_await memory.allocate(std::max<std::size_t>(out_bytes, 1));

    auto work = std::make_shared<GWork>();
    work->execute_name = spec.kernel;
    work->ptx_path = spec.ptx_path;
    work->layout = spec.layout;
    work->size = n;
    work->block_size = spec.block_size;
    work->job_id = ctx.job().id();
    work->tenant = ctx.job().tenant();
    work->span = ctx.span();
    work->params = params;
    work->chunkable = spec.chunkable;
    work->chunk_bytes = spec.chunk_bytes;
    GBuffer in_binding;
    in_binding.host = in_buf;
    in_binding.bytes = in_bytes;
    in_binding.cache = spec.cache_input;
    in_binding.cache_key = make_cache_key(spec.cache_namespace,
                                          static_cast<std::uint32_t>(ctx.partition()),
                                          static_cast<std::uint32_t>(b));
    in_binding.item_stride = stride;  // records never split across chunks
    work->inputs.push_back(std::move(in_binding));
    // Broadcast buffers stay indivisible (item_stride 0 as built by
    // make_aux): kernels index them absolutely.
    for (const GBuffer& a : aux) work->inputs.push_back(a);
    GBuffer out_binding;
    out_binding.host = out_buf;
    out_binding.bytes = out_bytes;
    // Element-wise ops produce a fixed number of output records per input
    // item; expose that as the output stride so chunks stay element-aligned.
    if (spec.chunkable && out_records >= n && out_records % n == 0) {
      out_binding.item_stride = (out_records / n) * out_stride;
    }
    work->outputs.push_back(std::move(out_binding));

    mgr.streams().submit(work);
    in_flight.push_back(BlockResult{std::move(work), out_records, std::move(out_buf)});
    if (in_flight.size() >= window) {
      co_await retire_oldest_block(in_flight, out);
    }
  }
  while (!in_flight.empty()) {
    co_await retire_oldest_block(in_flight, out);
  }
}

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
