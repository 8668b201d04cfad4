// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "spill/spill_store.hpp"

#include <algorithm>

#include "sim/util.hpp"

namespace gflink::spill {

namespace {

std::string spill_lane(int node) { return "node" + std::to_string(node) + "/spill"; }

}  // namespace

const char* spill_codec_name(SpillCodec codec) {
  switch (codec) {
    case SpillCodec::None: return "none";
    case SpillCodec::Lz: return "lz";
  }
  return "unknown";
}

bool parse_spill_codec(const std::string& text, SpillCodec* out) {
  if (text == "none") {
    *out = SpillCodec::None;
  } else if (text == "lz") {
    *out = SpillCodec::Lz;
  } else {
    return false;
  }
  return true;
}

const char* spill_tier_name(SpillTier tier) {
  switch (tier) {
    case SpillTier::Memory: return "memory";
    case SpillTier::Disk: return "disk";
    case SpillTier::Dfs: return "dfs";
  }
  return "unknown";
}

SpillStore::SpillStore(sim::Simulation& sim, net::Cluster& cluster, dfs::Gdfs& dfs,
                       SpillConfig config)
    : sim_(&sim), cluster_(&cluster), dfs_(&dfs), config_(std::move(config)) {
  GFLINK_CHECK(config_.workers_per_node >= 1);
  GFLINK_CHECK(config_.queue_capacity >= 1);
  GFLINK_CHECK(config_.lz_ratio > 0.0 && config_.lz_ratio <= 1.0);
  const std::size_t n = static_cast<std::size_t>(cluster.num_workers()) + 1;
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<NodeState>(sim, config_.queue_capacity));
  }
}

std::uint64_t SpillStore::stored_size(std::uint64_t raw, SpillTier tier) const {
  if (raw == 0) return 0;
  // The memory tier is a raw side buffer, not a storage format: blocks
  // stay uncompressed so a memory hit costs only the copy.
  if (tier == SpillTier::Memory || config_.codec == SpillCodec::None) return raw;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(raw) * config_.lz_ratio));
}

std::uint64_t SpillStore::tier_used_bytes(int node, SpillTier tier) const {
  return state(node).tier_used[static_cast<std::size_t>(tier)];
}

std::size_t SpillStore::queued_blocks(int node) const { return state(node).queue.size(); }

SpillTier SpillStore::reserve_tier(int node, std::uint64_t raw_bytes,
                                   std::uint64_t* stored_out) {
  NodeState& st = state(node);
  auto used = [&st](SpillTier t) -> std::uint64_t& {
    return st.tier_used[static_cast<std::size_t>(t)];
  };
  if (config_.memory_tier_bytes > 0 &&
      used(SpillTier::Memory) + raw_bytes <= config_.memory_tier_bytes) {
    used(SpillTier::Memory) += raw_bytes;
    *stored_out = raw_bytes;
    return SpillTier::Memory;
  }
  const std::uint64_t disk_stored = stored_size(raw_bytes, SpillTier::Disk);
  if (config_.disk_tier_bytes > 0 &&
      used(SpillTier::Disk) + disk_stored <= config_.disk_tier_bytes) {
    used(SpillTier::Disk) += disk_stored;
    *stored_out = disk_stored;
    return SpillTier::Disk;
  }
  // DFS is the unbounded backstop (the pre-refactor behaviour); usage is
  // tracked for diagnostics only.
  const std::uint64_t dfs_stored = stored_size(raw_bytes, SpillTier::Dfs);
  used(SpillTier::Dfs) += dfs_stored;
  *stored_out = dfs_stored;
  return SpillTier::Dfs;
}

sim::Co<BlockHandle> SpillStore::offload(int node, std::uint64_t raw_bytes, std::string label,
                                         obs::SpanLink link, std::function<void()> on_landed) {
  // Plain function, not a coroutine: the capturing hook is parked on the
  // shared block (a stable heap object) before any suspension machinery
  // gets involved, and only the handle + POD link travel through the
  // enqueue coroutine and the channel awaiter.
  auto block = std::make_shared<SpillBlock>();
  block->id = next_block_id_++;
  block->node = node;
  block->raw_bytes = raw_bytes;
  block->label = std::move(label);
  block->on_landed = std::move(on_landed);
  // The tier is chosen (and its capacity reserved) at enqueue time: the
  // stored size is a deterministic function of the raw size, so there is
  // nothing the worker could learn that would change the choice.
  block->tier = reserve_tier(node, raw_bytes, &block->stored_bytes);
  if (block->tier == SpillTier::Dfs) {
    block->dfs_path = config_.dfs_dir + "/b" + std::to_string(block->id);
  }
  counter("spill_offload_blocks_total", block->tier).inc();
  counter("spill_offload_bytes_total", block->tier).inc(static_cast<double>(raw_bytes));
  return enqueue(std::move(block), link);
}

sim::Co<BlockHandle> SpillStore::enqueue(BlockHandle block, obs::SpanLink link) {
  const int node = block->node;
  const char* tier = spill_tier_name(block->tier);
  // The enqueue itself: the only producer-visible stall in the async
  // path is this send parking on a full queue (backpressure).
  NodeState& st = state(node);
  const sim::Time enqueue_begin = sim_->now();
  co_await st.queue.send(QueueItem{block, link});
  if (sim_->now() > enqueue_begin) {
    counter("spill_producer_stalls_total", block->tier).inc();
    counter("spill_producer_stall_ns_total", block->tier)
        .inc(static_cast<double>(sim_->now() - enqueue_begin));
    cluster_->spans().record(std::string("wait:spill_enqueue:") + tier,
                             obs::SpanCategory::Wait, link.parent, enqueue_begin, sim_->now(),
                             spill_lane(node), node);
  }
  ensure_worker(node);
  co_return block;
}

void SpillStore::ensure_worker(int node) {
  NodeState& st = state(node);
  if (st.live_workers >= config_.workers_per_node) return;
  if (st.queue.empty() && st.queue.parked_senders() == 0) return;
  ++st.live_workers;
  // gflint: allow(C3): the SpillStore lives for the whole simulation and the
  // worker drains its queue then exits; no frame survives `this`.
  sim_->spawn(worker_loop(node));
}

sim::Co<void> SpillStore::worker_loop(int node) {
  NodeState& st = state(node);
  for (;;) {
    std::optional<QueueItem> item = st.queue.try_recv();
    // Drain-and-exit: an empty queue ends the worker (ensure_worker
    // respawns on the next enqueue), so no coroutine frame parks forever
    // on a recv that never comes.
    if (!item) break;
    co_await write_block(node, std::move(item->block), item->link);
  }
  // No suspension point since the empty check above, so no item can have
  // slipped in between the check and this decrement.
  --st.live_workers;
}

sim::Co<void> SpillStore::write_block(int node, BlockHandle handle, obs::SpanLink link) {
  SpillBlock& block = *handle;
  const char* tier = spill_tier_name(block.tier);
  const sim::Time begin = sim_->now();
  const obs::SpanId span =
      cluster_->spans().open(std::string("spill:write:") + tier, obs::SpanCategory::Spill,
                             link.parent, begin, spill_lane(node), node);
  if (block.tier != SpillTier::Memory) {
    const std::uint64_t stored = co_await compress(node, block.raw_bytes, block.tier);
    GFLINK_CHECK_MSG(stored == block.stored_bytes,
                     "stored size disagrees with the enqueue-time reservation");
  }
  switch (block.tier) {
    case SpillTier::Memory:
      // A memory-tier land is a copy into the node's spill side buffer.
      co_await sim_->delay(
          sim::transfer_time(block.raw_bytes, cluster_->node(node).spec().cpu.mem_bandwidth));
      break;
    case SpillTier::Disk:
      co_await cluster_->node(node).disk_write().transfer(
          block.stored_bytes, block.label, {span, obs::SpanCategory::Spill});
      break;
    case SpillTier::Dfs:
      co_await dfs_->write(node, block.dfs_path, block.stored_bytes,
                           {span, obs::SpanCategory::Spill});
      break;
  }
  cluster_->spans().close(span, sim_->now());
  counter("spill_landed_blocks_total", block.tier).inc();
  counter("spill_stored_bytes_total", block.tier).inc(static_cast<double>(block.stored_bytes));
  block.landed = true;
  if (block.land_trigger) block.land_trigger->fire();
  // The single accounting point: the caller's hook runs exactly once,
  // here, when the block has landed on its tier. Invoked in place on the
  // shared block and cleared — never moved through a coroutine frame.
  if (block.on_landed) {
    block.on_landed();
    block.on_landed = nullptr;
  }
}

sim::Co<std::uint64_t> SpillStore::compress(int node, std::uint64_t raw, SpillTier tier) {
  const std::uint64_t stored = stored_size(raw, tier);
  if (config_.codec == SpillCodec::Lz && tier != SpillTier::Memory && raw > 0) {
    const sim::Duration cost = sim::transfer_time(raw, config_.compress_bandwidth);
    co_await sim_->delay(cost);
    counter("codec_compress_ns_total", tier).inc(static_cast<double>(cost));
    counter("codec_saved_bytes_total", tier).inc(static_cast<double>(raw - stored));
  }
  (void)node;
  co_return stored;
}

sim::Co<void> SpillStore::decompress(int node, std::uint64_t raw, SpillTier tier) {
  if (config_.codec == SpillCodec::Lz && tier != SpillTier::Memory && raw > 0) {
    const sim::Duration cost = sim::transfer_time(raw, config_.decompress_bandwidth);
    co_await sim_->delay(cost);
    counter("codec_decompress_ns_total", tier).inc(static_cast<double>(cost));
  }
  (void)node;
}

sim::Co<void> SpillStore::fetch(const BlockHandle& handle, int reader, obs::SpanLink link) {
  GFLINK_CHECK(handle != nullptr);
  SpillBlock& block = *handle;
  if (!block.landed) {
    // Write-behind consistency: a reader that outruns the spill worker
    // waits for the land instead of observing a torn block.
    const char* tier = spill_tier_name(block.tier);
    if (!block.land_trigger) block.land_trigger = std::make_unique<sim::Trigger>(*sim_);
    const sim::Time wait_begin = sim_->now();
    co_await block.land_trigger->wait();
    if (sim_->now() > wait_begin) {
      counter("spill_fetch_wait_ns_total", block.tier)
          .inc(static_cast<double>(sim_->now() - wait_begin));
      cluster_->spans().record(std::string("wait:spill_land:") + tier,
                               obs::SpanCategory::Wait, link.parent, wait_begin, sim_->now(),
                               spill_lane(reader), reader);
    }
  }
  const char* tier = spill_tier_name(block.tier);
  const sim::Time begin = sim_->now();
  const obs::SpanId span =
      cluster_->spans().open(std::string("spill:fetch:") + tier, obs::SpanCategory::Spill,
                             link.parent, begin, spill_lane(reader), reader);
  switch (block.tier) {
    case SpillTier::Memory:
      if (reader != block.node) {
        co_await cluster_->transfer(block.node, reader, block.raw_bytes, block.label,
                                    {span, obs::SpanCategory::Spill});
      } else {
        co_await sim_->delay(sim::transfer_time(
            block.raw_bytes, cluster_->node(reader).spec().cpu.mem_bandwidth));
      }
      break;
    case SpillTier::Disk:
      co_await cluster_->node(block.node).disk_read().transfer(
          block.stored_bytes, block.label, {span, obs::SpanCategory::Spill});
      if (reader != block.node) {
        co_await cluster_->transfer(block.node, reader, block.stored_bytes, block.label,
                                    {span, obs::SpanCategory::Spill});
      }
      co_await decompress(reader, block.raw_bytes, block.tier);
      break;
    case SpillTier::Dfs:
      co_await dfs_->read_file(reader, block.dfs_path, {span, obs::SpanCategory::Spill});
      co_await decompress(reader, block.raw_bytes, block.tier);
      break;
  }
  counter("spill_tier_hits_total", block.tier).inc();
  cluster_->spans().close(span, sim_->now());
  // Promotion: a re-read disk/DFS block moves back up into the memory
  // tier when room exists, so the next fetch is a memory hit.
  if (block.tier != SpillTier::Memory && !block.released && config_.memory_tier_bytes > 0) {
    NodeState& st = state(block.node);
    auto& mem_used = st.tier_used[static_cast<std::size_t>(SpillTier::Memory)];
    if (mem_used + block.raw_bytes <= config_.memory_tier_bytes) {
      const char* to_tier = spill_tier_name(SpillTier::Memory);
      const sim::Time promote_begin = sim_->now();
      co_await sim_->delay(sim::transfer_time(
          block.raw_bytes, cluster_->node(block.node).spec().cpu.mem_bandwidth));
      cluster_->spans().record(std::string("spill:promote:") + to_tier,
                               obs::SpanCategory::Spill, link.parent, promote_begin,
                               sim_->now(), spill_lane(block.node), block.node);
      auto& old_used = st.tier_used[static_cast<std::size_t>(block.tier)];
      GFLINK_CHECK_MSG(old_used >= block.stored_bytes,
                       "spill tier accounting went negative on promotion");
      old_used -= block.stored_bytes;
      mem_used += block.raw_bytes;
      block.tier = SpillTier::Memory;
      block.stored_bytes = block.raw_bytes;
      counter("spill_promotions_total", block.tier).inc();
    }
  }
}

obs::Counter& SpillStore::counter(const char* name, SpillTier tier) {
  auto it = std::find_if(counters_.begin(), counters_.end(),
                         [name](const CachedCounter& c) { return c.name == name; });
  if (it == counters_.end()) it = counters_.insert(counters_.end(), CachedCounter{name, {}});
  obs::Counter*& handle = it->by_tier[static_cast<std::size_t>(tier)];
  if (handle == nullptr) handle = &metrics().counter(name, {{"tier", spill_tier_name(tier)}});
  return *handle;
}

void SpillStore::release(const BlockHandle& handle) {
  if (!handle || handle->released) return;
  SpillBlock& block = *handle;
  block.released = true;
  NodeState& st = state(block.node);
  auto& used = st.tier_used[static_cast<std::size_t>(block.tier)];
  const std::uint64_t footprint =
      block.tier == SpillTier::Memory ? block.raw_bytes : block.stored_bytes;
  GFLINK_CHECK_MSG(used >= footprint, "spill tier accounting went negative on release");
  used -= footprint;
}

}  // namespace gflink::spill
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
