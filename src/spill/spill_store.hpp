// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// The tiered, asynchronously-offloaded spill store (ROADMAP item 4).
//
// DShuffle's core observation (and the GC-vs-serialization paper's
// quantified complaint) is that spill I/O and serde on the producing
// task's critical path kill throughput: the task stalls for a full disk
// or DFS round trip every time the exchange buffer overflows. The
// SpillStore moves that work off the hot path:
//
//  * offload() is an *enqueue*: the producing coroutine hands the block
//    to its node's bounded spill queue and continues immediately. The
//    only way a producer blocks is backpressure — the queue is full —
//    which is measured (spill_producer_stall_ns_total) and spanned.
//  * Dedicated per-node spill workers drain the queue: they compress the
//    block (SpillCodec::Lz models an LZ-class scheme over GStruct's
//    fixed column layouts — deterministic ratio, bandwidth-shaped cost)
//    and write it to the chosen tier. Workers are spawned on demand and
//    exit when the queue drains, so no coroutine frame parks forever.
//  * Blocks land on a memory → local-disk → DFS tier ladder. The tier is
//    chosen at enqueue time (stored size is a deterministic function of
//    the raw size, so capacity can be reserved up front): the memory
//    tier is a raw side buffer beyond the exchange budget; the disk tier
//    pays the node's disk pipes for the *compressed* bytes; the DFS tier
//    is the unbounded backstop (the pre-refactor behaviour). fetch()
//    promotes a re-read disk/DFS block back into the memory tier when
//    room exists, so the second read is a memory hit.
//
// Consistency: fetch() waits for a still-in-flight block to land before
// reading it (write-behind with read-your-writes), so callers never
// observe a torn block. Accounting hooks (`on_landed`) run exactly once,
// on the worker, when the block lands — the single-point-accounting rule
// the shuffle layer's spill-byte counters rely on.
//
// Every metric and span emitted here carries a tier attribution (gflint
// rule R6).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dfs/gdfs.hpp"
#include "net/cluster.hpp"
#include "sim/sync.hpp"

namespace gflink::spill {

/// Block compression codec applied by the spill worker before a block
/// hits a storage tier (the memory tier keeps blocks raw — it is a side
/// buffer, not a storage format).
enum class SpillCodec { None, Lz };

/// Stable string keys ("none", "lz") shared by the CLI, the ablation
/// bench and bench/baselines.json.
const char* spill_codec_name(SpillCodec codec);
bool parse_spill_codec(const std::string& text, SpillCodec* out);

/// The tier ladder, cheapest first.
enum class SpillTier { Memory, Disk, Dfs };
inline constexpr std::size_t kSpillTiers = 3;

/// Stable string keys ("memory", "disk", "dfs") used as the `tier` metric
/// label and in span names.
const char* spill_tier_name(SpillTier tier);

struct SpillConfig {
  SpillCodec codec = SpillCodec::Lz;
  /// Spill workers per node: how many tier writes drain concurrently.
  int workers_per_node = 2;
  /// Bounded queue depth per node. A producer whose enqueue finds the
  /// queue full parks until a worker drains a slot (the only producer-
  /// visible stall in the async path).
  std::size_t queue_capacity = 16;
  /// Memory-tier budget per node (raw bytes): spill side buffer beyond
  /// the exchange receiver budget. 0 disables the tier.
  std::uint64_t memory_tier_bytes = 256ULL << 20;
  /// Disk-tier budget per node (stored/compressed bytes). 0 disables.
  std::uint64_t disk_tier_bytes = 4ULL << 30;
  /// Modeled LZ-class codec: stored = max(1, raw * lz_ratio). GStruct's
  /// fixed column layouts make block-wise LZ effective and the ratio
  /// stable across blocks of one dataset.
  double lz_ratio = 0.45;
  /// Codec throughput (bytes/s, unscaled like all bandwidths): the
  /// worker pays raw/compress_bandwidth to compress, the reader pays
  /// raw/decompress_bandwidth to decompress. LZ4-class defaults.
  double compress_bandwidth = 1.8e9;
  double decompress_bandwidth = 4.2e9;
  /// DFS directory for DFS-tier blocks.
  std::string dfs_dir = "/spill/tier";
};

/// One offloaded block. Returned by offload() as a shared handle: the
/// worker and the caller both hold it, so accounting survives either
/// side going away first. Treat as opaque outside src/spill and tests.
struct SpillBlock {
  std::uint64_t id = 0;
  int node = -1;             // owning node (queue, tiers, disk pipes)
  SpillTier tier = SpillTier::Dfs;
  std::uint64_t raw_bytes = 0;
  std::uint64_t stored_bytes = 0;  // post-codec bytes on disk/DFS tiers
  std::string label;               // diagnostic label for pipes/tracer
  std::string dfs_path;            // DFS-tier blocks only
  bool landed = false;
  bool released = false;
  /// The caller's accounting hook; lives on the block (a stable heap
  /// object both sides share) rather than travelling through coroutine
  /// parameters or channel awaiters, so no capturing closure is ever
  /// moved across a suspension boundary. Run once and cleared when the
  /// block lands.
  std::function<void()> on_landed;
  /// Created lazily by the first fetch() that arrives before landing.
  std::unique_ptr<sim::Trigger> land_trigger;
};

using BlockHandle = std::shared_ptr<SpillBlock>;

/// Per-node async spill service: bounded queues, on-demand drain workers,
/// the tier ladder, and the codec. One per ShuffleService (or standalone
/// in tests/benches).
class SpillStore {
 public:
  SpillStore(sim::Simulation& sim, net::Cluster& cluster, dfs::Gdfs& dfs, SpillConfig config);

  const SpillConfig& config() const { return config_; }

  /// Enqueue `raw_bytes` for asynchronous offload at `node`. Picks and
  /// reserves the tier, then hands the block to the node's spill queue —
  /// returns as soon as the block is queued (parking only on a full
  /// queue). `on_landed` runs exactly once, on the worker, after the
  /// block lands on its tier (the caller's single accounting point).
  /// `link` parents the worker-side write span.
  sim::Co<BlockHandle> offload(int node, std::uint64_t raw_bytes, std::string label,
                               obs::SpanLink link, std::function<void()> on_landed = {});

  /// Read a block back at `reader`: waits for the block to land if it is
  /// still in flight (write-behind consistency), pays the tier read plus
  /// decompression, counts the tier hit, and promotes a disk/DFS block
  /// into the memory tier when room exists (so a re-read is a memory
  /// hit). Non-consuming: call release() when the block is done.
  sim::Co<void> fetch(const BlockHandle& block, int reader, obs::SpanLink link = {});

  /// Return the block's tier capacity. Idempotent.
  void release(const BlockHandle& block);

  /// Charge the codec's compression cost for `raw` bytes stored on
  /// `tier` at `node` and emit the codec_* metrics; returns the stored
  /// size. Shared with the synchronous shuffle spill path so the codec
  /// ablation holds the codec constant across sync/async.
  sim::Co<std::uint64_t> compress(int node, std::uint64_t raw, SpillTier tier);
  /// Charge the decompression cost (no-op under SpillCodec::None).
  sim::Co<void> decompress(int node, std::uint64_t raw, SpillTier tier);

  /// Post-codec stored size for `raw` bytes on `tier` (deterministic —
  /// what lets offload() reserve capacity at enqueue time).
  std::uint64_t stored_size(std::uint64_t raw, SpillTier tier) const;

  /// Diagnostics for tests: bytes currently reserved on a tier.
  std::uint64_t tier_used_bytes(int node, SpillTier tier) const;
  /// Diagnostics for tests: blocks queued but not yet picked up.
  std::size_t queued_blocks(int node) const;

 private:
  /// Queue entries are a shared handle plus a POD link. The user-declared
  /// constructor is load-bearing: GCC 12 miscompiles *aggregate* types
  /// with non-trivial members when they cross a coroutine boundary (as a
  /// by-value parameter or a braced temporary inside a co_await
  /// expression, the frame copy is elided but both destructors still
  /// run), corrupting the shared_ptr's refcount. Coroutines additionally
  /// take the fields as separate parameters rather than a QueueItem.
  struct QueueItem {
    QueueItem(BlockHandle b, obs::SpanLink l) : block(std::move(b)), link(l) {}
    BlockHandle block;
    obs::SpanLink link;
  };
  /// Per-node state. The queue is the backpressure
  /// primitive: senders park when it is full.
  struct NodeState {
    explicit NodeState(sim::Simulation& sim, std::size_t capacity) : queue(sim, capacity) {}
    sim::Channel<QueueItem> queue;
    int live_workers = 0;
    std::uint64_t tier_used[kSpillTiers] = {0, 0, 0};
  };

  NodeState& state(int node) { return *nodes_.at(static_cast<std::size_t>(node)); }
  const NodeState& state(int node) const { return *nodes_.at(static_cast<std::size_t>(node)); }
  obs::MetricsRegistry& metrics() { return cluster_->metrics(); }
  /// The series `name{tier=...}`. Each handle is resolved from the
  /// registry on its first increment and cached, so later increments skip
  /// the label map and the keyed lookup, and a series that is never
  /// incremented never appears in exports.
  obs::Counter& counter(const char* name, SpillTier tier);

  /// Pick the cheapest tier with room and reserve the block's footprint
  /// (raw bytes on the memory tier, stored bytes on disk; DFS is the
  /// unbounded backstop).
  SpillTier reserve_tier(int node, std::uint64_t raw_bytes, std::uint64_t* stored_out);

  /// The suspendable half of offload(): the bounded-queue enqueue.
  /// Deliberately a separate coroutine whose parameters are a shared
  /// handle and a POD link — offload() itself stays a plain function so
  /// the caller's std::function hook never crosses a coroutine frame.
  sim::Co<BlockHandle> enqueue(BlockHandle block, obs::SpanLink link);
  /// Ensure a drain worker is running at `node` (up to workers_per_node).
  void ensure_worker(int node);
  /// Drain loop: write queued blocks until the queue is empty, then exit
  /// (no parked-forever coroutine frames; ensure_worker respawns).
  sim::Co<void> worker_loop(int node);
  /// Compress (storage tiers) + write one block to its tier, then mark it
  /// landed, fire waiters and run the accounting hook.
  sim::Co<void> write_block(int node, BlockHandle block, obs::SpanLink link);

  sim::Simulation* sim_;
  net::Cluster* cluster_;
  dfs::Gdfs* dfs_;
  SpillConfig config_;
  std::uint64_t next_block_id_ = 1;
  std::vector<std::unique_ptr<NodeState>> nodes_;  // indexed by node id
  /// counter()'s cache, keyed by the address of the name literal: every
  /// emission site passes its own literal, so this holds about a dozen
  /// entries. (Two sites sharing a name would cache the same handle twice.)
  struct CachedCounter {
    const char* name;
    obs::Counter* by_tier[kSpillTiers];
  };
  std::vector<CachedCounter> counters_;
};

}  // namespace gflink::spill
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
