// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// The shuffle subsystem (paper §4–§5: bulk block transfers that overlap
// compute).
//
// A ShuffleService turns the engine's all-to-all exchanges into transfers
// over the cluster's network model, with three transports (ShuffleMode):
//
//  * senders bucket records by key hash (with optional map-side combine,
//    performed on the raw GStruct bytes — no serialization boundary);
//  * `barrier` — buckets are cut into fixed-size blocks shipped serially
//    inside the sending task over the 1 GbE NIC pipes (the pre-refactor
//    behaviour, kept as the ablation baseline);
//  * `pipelined` — the same blocks, but every block acquires one
//    in-flight credit for its target partition before it may enter the
//    network (a slow receiver throttles its senders instead of
//    accumulating unbounded buffers), and block sends are detached
//    coroutines: the task slot is released while the NIC drains, so
//    network transfer overlaps the downstream partition compute;
//  * `one_sided` (default) — the RDMA-style transport: senders build per-destination
//    histograms, announce them with control messages, reserve disjoint
//    offsets in each receiver's pre-sized receive region via remote
//    fetch-add (the arrival-order prefix sum), then land whole buckets
//    with one-sided writes over the RdmaNicSpec HCA pipes. There are no
//    credits and no per-block ACKs; completion is a remote fetch-add
//    counter that finish() polls as the barrier;
//  * in every mode a receiver whose exchange buffer exceeds its byte
//    budget spills deposited buckets and reads them back at merge time.
//    By default the spill is *asynchronous*: the bucket is enqueued to
//    the receiving node's spill workers (src/spill — bounded queue,
//    memory → disk → DFS tier ladder, optional LZ-style codec) and the
//    depositing coroutine continues immediately; `spill_async = false`
//    keeps the pre-refactor synchronous DFS write as the ablation
//    baseline. Injected transfer faults (the hook the fault framework of
//    tests/test_fault.cpp uses) are retried with exponential backoff.
//
// One ShuffleSession is one exchange: `partition` + `send` on the map side,
// `finish` as the stage barrier, `take` on the reduce side. The service is
// long-lived (one per Engine) and owns the config, metrics and fault hooks
// shared by all sessions. docs/ARCHITECTURE.md#shuffle-transports has the
// sequence diagrams for all three modes.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dfs/gdfs.hpp"
#include "mem/key_index.hpp"
#include "mem/record_batch.hpp"
#include "net/cluster.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "spill/spill_store.hpp"

namespace gflink::shuffle {

/// Key extraction over raw record bytes (same signature as the dataflow
/// layer's KeyFn; duplicated here so shuffle does not depend on dataflow).
using KeyFn = std::function<std::uint64_t(const std::byte*)>;
/// In-place associative combine: fold `record` into `accumulator`.
using CombineFn = std::function<void(std::byte*, const std::byte*)>;

/// Spread shuffle keys over target partitions. The raw key is often a small
/// integer (word id, page id), so mix it first.
inline int target_partition(std::uint64_t key, int partitions) {
  std::uint64_t s = key;
  return static_cast<int>(sim::splitmix64(s) % static_cast<std::uint64_t>(partitions));
}

/// What a keyed combine reuses from the one before it, so that no combine
/// builds a key index or grows an accumulator buffer from scratch.
struct CombineScratch {
  mem::KeyIndex keys;                   // key -> accumulator slot
  std::vector<std::byte> accumulators;  // one record per slot
  std::vector<std::uint32_t> targets;   // each slot's bucket
};

/// The one keyed combine loop, behind map-side combine (one bucket per
/// target partition) and the reduce-side merge (one bucket). Folds the
/// records of `in`, batch after batch: the first record of each key
/// becomes its accumulator, bound for bucket target_partition(key,
/// buckets.size()), and every later record with that key is folded into
/// it by `combine(acc, rec)`. The accumulators then fill the (empty)
/// buckets at their exact size, each bucket in first-occurrence order.
/// Combines run in input order, so the result is byte-identical to a
/// per-record ordered-map fold of the concatenated input. `key(const
/// std::byte*) -> uint64` and `combine(std::byte*, const std::byte*)` are
/// template parameters, so a typed caller (DataSet::reduce_by_key) inlines
/// them into the loop. Every batch must share the buckets' record stride.
template <typename Key, typename Combine>
void combine_by_key(std::span<const mem::RecordBatch> in, CombineScratch& scratch,
                    std::span<mem::RecordBatch> buckets, Key&& key, Combine&& combine) {
  GFLINK_CHECK(!buckets.empty());
  const std::size_t stride = buckets.front().desc().stride();
  for (const mem::RecordBatch& bucket : buckets) {
    GFLINK_CHECK(bucket.empty() && bucket.layout() == mem::Layout::AoS &&
                 bucket.desc().stride() == stride);
  }
  std::size_t records = 0;
  for (const mem::RecordBatch& batch : in) records += batch.count();
  // Every record may carry a new key: size the accumulators for that once,
  // so the loop below never grows a buffer.
  if (scratch.accumulators.size() < records * stride) {
    scratch.accumulators.resize(records * stride);
  }
  if (scratch.targets.size() < records) scratch.targets.resize(records);
  scratch.keys.clear();
  const int partitions = static_cast<int>(buckets.size());
  std::byte* const acc = scratch.accumulators.data();
  std::uint32_t* const targets = scratch.targets.data();
  std::vector<std::size_t> sizes(buckets.size(), 0);
  for (const mem::RecordBatch& batch : in) {
    if (batch.empty()) continue;
    GFLINK_CHECK(batch.layout() == mem::Layout::AoS && batch.desc().stride() == stride);
    const std::byte* rec = batch.bytes().data();
    for (std::size_t i = 0; i < batch.count(); ++i, rec += stride) {
      const std::uint64_t k = key(rec);
      const auto [slot, inserted] = scratch.keys.insert(k);
      if (inserted) {
        // Only a new key pays the partition hash.
        const int t = partitions == 1 ? 0 : target_partition(k, partitions);
        targets[slot] = static_cast<std::uint32_t>(t);
        ++sizes[static_cast<std::size_t>(t)];
        std::memcpy(acc + slot * stride, rec, stride);
      } else {
        combine(acc + slot * stride, rec);
      }
    }
  }
  std::vector<std::byte*> fill(buckets.size());
  for (std::size_t t = 0; t < buckets.size(); ++t) {
    buckets[t].resize(sizes[t]);
    fill[t] = buckets[t].bytes().data();
  }
  const std::size_t slots = scratch.keys.size();
  if (partitions == 1) {
    if (slots > 0) std::memcpy(fill[0], acc, slots * stride);
    return;
  }
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::byte*& to = fill[targets[slot]];
    std::memcpy(to, acc + slot * stride, stride);
    to += stride;
  }
}

/// Exchange transport (see the file comment for the three designs).
enum class ShuffleMode { Barrier, Pipelined, OneSided };

/// Stable string keys ("barrier", "pipelined", "one_sided") shared by the
/// CLI, the ablation bench and bench/baselines.json.
const char* shuffle_mode_name(ShuffleMode mode);
/// Parse a stable string key; returns false (and leaves `out` alone) on an
/// unknown key.
bool parse_shuffle_mode(const std::string& text, ShuffleMode* out);

struct ShuffleConfig {
  /// Granularity of network sends. Buckets larger than this are cut into
  /// multiple blocks whose transfers pipeline through the NIC pipes.
  std::uint64_t block_bytes = 256 * 1024;
  /// In-flight blocks allowed per target partition before senders stall
  /// (the credit window).
  int credits_per_partition = 4;
  /// Per-receiver exchange-buffer budget. Deposits beyond this spill to the
  /// DFS (when `spill_enabled`) and are read back at merge time.
  std::uint64_t receiver_budget_bytes = 1ULL << 30;
  /// Which transport ships the buckets (see ShuffleMode). OneSided — the
  /// RDMA-style histogram + one-sided-write exchange — is the default;
  /// Barrier is the pre-ShuffleService ablation baseline; Pipelined is the
  /// credit-windowed NIC transport.
  ShuffleMode mode = ShuffleMode::OneSided;
  bool spill_enabled = true;
  /// Asynchronous spill offload (the default): deposits over the receiver
  /// budget are enqueued to the node's spill workers (src/spill) and the
  /// depositing coroutine continues; false keeps the synchronous DFS
  /// write on the depositing path (the ablation baseline).
  bool spill_async = true;
  /// Tier ladder / codec / worker configuration of the async spill store.
  spill::SpillConfig spill;
  /// Retry budget for injected transfer faults. A block send that faults
  /// more than `max_retries` times aborts the shuffle (checked loudly at
  /// finish()).
  int max_retries = 4;
  /// Base backoff before the first retry; doubles per attempt.
  sim::Duration retry_backoff = sim::millis(2);
  /// DFS directory spilled buckets are written under.
  std::string spill_dir = "/shuffle/spill";
};

class ShuffleService;

/// One all-to-all exchange: `out_partitions` target buckets, each owned by
/// the worker `owner(t)` says. Sessions are created per shuffling stage and
/// must outlive their in-flight sends (await finish() before destruction).
class ShuffleSession {
 public:
  /// `parent` (usually the stage span) parents the session's causal span;
  /// the session span stays open until finish(), so detached bucket sends
  /// always have a live ancestor to hang off.
  ShuffleSession(ShuffleService& service, int out_partitions, std::string label,
                 obs::SpanId parent = 0);
  ShuffleSession(const ShuffleSession&) = delete;
  ShuffleSession& operator=(const ShuffleSession&) = delete;
  ~ShuffleSession();

  int out_partitions() const { return out_partitions_; }
  const std::string& label() const { return label_; }

  /// out_partitions() empty AoS batches of `desc`, one per target partition.
  std::vector<mem::RecordBatch> empty_buckets(const mem::StructDesc* desc) const;

  /// Bucket `in` into out_partitions() batches by key hash. When `combiner`
  /// is non-null, records sharing a key are folded together first (map-side
  /// combine through combine_by_key over the service's scratch); the
  /// result preserves first-occurrence order, so it is deterministic for a
  /// given input order.
  std::vector<mem::RecordBatch> partition(const mem::RecordBatch& in,
                                          const mem::StructDesc* out_desc, const KeyFn& key,
                                          const CombineFn* combiner) const;

  /// Ship every non-empty bucket from `src_worker` toward its target
  /// partition's owner. Pipelined mode returns once the sends are detached;
  /// barrier mode awaits every transfer; one-sided mode awaits the
  /// histogram exchange + offset reservations and detaches the bulk
  /// writes. Bytes that cross the network are accounted here — and only
  /// here (see network_bytes()).
  sim::Co<void> send(int src_worker, std::vector<mem::RecordBatch> buckets);

  /// Deposit a bucket for partition `t` without any network or spill
  /// modeling (used by rebalance, whose transfers are charged at merge).
  void deposit_local(int t, mem::RecordBatch bucket);

  /// Stage barrier: wait until every in-flight block has been deposited.
  /// Async spill offloads are only *enqueued* by then — tier writes drain
  /// in the background and take() awaits any block still in flight — so
  /// the barrier no longer pays for spill I/O (the DShuffle-style win).
  /// Aborts loudly if a block exhausted its retry budget.
  sim::Co<void> finish();

  /// Reduce side: move partition `t`'s deposited buckets out, paying the
  /// DFS read for any that were spilled. `reader` is the merging worker.
  /// `link` parents the unspill-read causal spans (usually the merge task
  /// span, category Spill).
  sim::Co<std::vector<mem::RecordBatch>> take(int t, int reader, obs::SpanLink link = {});

  /// Bytes this session moved across the network (excludes same-worker
  /// buckets). The single source of truth for stage shuffle accounting.
  std::uint64_t network_bytes() const { return network_bytes_; }
  /// Counted when the spilled block *lands* on its tier (worker-side on
  /// the async path, inline on the sync path) — the single accounting
  /// point the spill_bytes counters share. Held behind a shared_ptr so a
  /// worker whose session already died can still account safely.
  std::uint64_t spilled_bytes() const { return *spill_acct_; }

 private:
  struct Deposit {
    mem::RecordBatch batch;
    bool spilled = false;
    bool counted_resident = false;  // held exchange-budget bytes until taken
    std::string spill_path{};            // sync spill path (DFS file)
    spill::BlockHandle spill_block{};    // async spill path (tiered store)
  };

  sim::Co<void> send_bucket(int src, int t, mem::RecordBatch bucket);
  /// One-sided transport: histogram announcement + offset reservation, then
  /// detached bulk writes (no credits, no per-block ACKs).
  sim::Co<void> send_one_sided(int src, std::vector<mem::RecordBatch> buckets);
  sim::Co<void> one_sided_bucket(int src, int t, std::uint64_t offset, mem::RecordBatch bucket);
  /// finish()'s completion barrier: poll each destination's done counter
  /// until it reaches the histogram-announced write count.
  sim::Co<void> one_sided_barrier();
  sim::Co<void> deposit(int t, int dst, mem::RecordBatch bucket);

  ShuffleService* service_;
  int out_partitions_;
  std::string label_;
  std::uint64_t id_;
  obs::SpanId span_ = 0;  // the session's causal span; closed by finish()
  std::vector<std::vector<Deposit>> buckets_;
  std::vector<std::unique_ptr<sim::Semaphore>> credits_;  // per target partition
  std::unique_ptr<sim::Trigger> drained_;  // created lazily by finish()
  /// Per-destination one-sided exchange state. Histogram announcements fix
  /// expected_writes before any write can retire, so the counts finish()
  /// polls against are exact.
  struct OneSidedDst {
    std::uint64_t expected_writes = 0;  // buckets announced toward this node
    std::uint64_t announced_bytes = 0;  // histogram total = final region cursor
  };
  std::vector<OneSidedDst> one_sided_;  // indexed by destination node id
  /// Receive-region allocation cursor and completion counter in each
  /// destination's memory, namespaced by session id.
  std::uint64_t region_counter() const { return id_ * 2; }
  std::uint64_t done_counter() const { return id_ * 2 + 1; }
  /// Detached bucket sends not yet retired; the last one to retire fires
  /// `drained_`.
  int in_flight_sends_ = 0;
  std::uint64_t network_bytes_ = 0;
  /// Landed spill bytes (see spilled_bytes()); shared so the async
  /// worker's accounting hook never dangles.
  std::shared_ptr<std::uint64_t> spill_acct_ = std::make_shared<std::uint64_t>(0);
  std::uint64_t next_spill_seq_ = 0;
  int aborted_blocks_ = 0;
};

class ShuffleService {
 public:
  /// Maps a target partition index to the worker node owning it.
  using OwnerFn = std::function<int(int)>;

  ShuffleService(sim::Simulation& sim, net::Cluster& cluster, dfs::Gdfs& dfs,
                 ShuffleConfig config, OwnerFn owner);

  const ShuffleConfig& config() const { return config_; }
  sim::Simulation& sim() { return *sim_; }
  net::Cluster& cluster() { return *cluster_; }
  dfs::Gdfs& dfs() { return *dfs_; }
  int owner_of(int partition) const { return owner_(partition); }
  obs::MetricsRegistry& metrics() { return cluster_->metrics(); }
  /// The tiered async spill store shared by every session (also serves
  /// the codec to the synchronous ablation path).
  spill::SpillStore& spill_store() { return *spill_store_; }

  /// Fault-injection hook (the shuffle arm of the fault framework): the
  /// next `n` block-transfer attempts fail before moving any bytes and are
  /// retried with exponential backoff.
  void inject_transfer_faults(int n) { injected_faults_ += n; }
  int pending_injected_faults() const { return injected_faults_; }

  /// Highest number of blocks that were simultaneously in flight — what the
  /// credit window bounds (diagnostic for tests/benches).
  std::int64_t max_blocks_in_flight() const { return max_in_flight_; }

  /// Blocks in flight right now (sent, not yet deposited) — the live
  /// telemetry plane samples this each period.
  std::int64_t blocks_in_flight() const { return in_flight_; }

  /// Bytes currently resident in `worker`'s exchange buffer (deposited, not
  /// yet taken, not spilled).
  std::uint64_t resident_bytes(int worker) const {
    return resident_.at(static_cast<std::size_t>(worker));
  }

  /// The scratch every combine_by_key of this engine reuses, allocated on
  /// first use. Sharing one is safe: a Simulation is confined to one thread
  /// and a combine never suspends, so no two combines interleave.
  CombineScratch& combine_scratch() {
    if (!combine_scratch_) combine_scratch_ = std::make_unique<CombineScratch>();
    return *combine_scratch_;
  }

 private:
  friend class ShuffleSession;

  /// One block across the network, retrying injected faults with backoff.
  /// Returns false when the retry budget is exhausted. `link` parents the
  /// NIC-pipe causal spans.
  sim::Co<bool> transfer_block(int src, int dst, std::uint64_t bytes, const std::string& label,
                               obs::SpanLink link = {});

  /// One bulk one-sided write over the HCA pipes, retrying injected faults
  /// with the same backoff/abort policy as transfer_block.
  sim::Co<bool> one_sided_write(int src, int dst, std::uint64_t offset, std::uint64_t bytes,
                                const std::string& label, obs::SpanLink link = {});

  /// The series `name`, resolved from the registry on its first increment
  /// and cached: a block or spill pays no keyed registry lookup (most of
  /// these names outgrow the small-string buffer, so a lookup allocates),
  /// and a series no run touched never reaches an export.
  obs::Counter& counter(const char* name);

  void block_started();
  void block_finished();
  void sub_resident(int worker, std::uint64_t bytes);
  /// Consume one injected fault; false when none are pending.
  bool consume_injected_fault();

  sim::Simulation* sim_;
  net::Cluster* cluster_;
  dfs::Gdfs* dfs_;
  ShuffleConfig config_;
  OwnerFn owner_;
  /// Outlives every session (sessions are per-stage; the service is
  /// per-engine), so worker-side hooks may capture the service pointer.
  std::unique_ptr<spill::SpillStore> spill_store_;
  // Service-wide credit/fault/resident accounting shared by every session.
  int injected_faults_ = 0;
  std::int64_t in_flight_ = 0;
  std::int64_t max_in_flight_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::vector<std::uint64_t> resident_;  // exchange bytes per node id
  /// counter()'s cache, keyed by the address of the name literal (as in
  /// spill::SpillStore): one entry per emission site.
  std::vector<std::pair<const char*, obs::Counter*>> counters_;
  std::unique_ptr<CombineScratch> combine_scratch_;  // see combine_scratch()
};

}  // namespace gflink::shuffle
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
