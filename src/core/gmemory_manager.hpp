// GMemoryManager: GFlink's automatic device-memory management and GPU cache
// scheme (paper §4.2).
//
// Responsibilities:
//  * automatic allocation/release of device buffers around each GWork (no
//    user-visible cudaMalloc/cudaFree);
//  * per-job cache regions on each GPU: a budget reserved when the job
//    first touches the device and released when the job ends. Within a
//    region, cached objects are tracked in a hash table keyed by the
//    (partition, block) cache key, with a FIFO list for eviction;
//  * two policies (paper §4.2.2): FIFO eviction, and NoEvict — once the
//    region is full nothing more is cached (useful when one iteration's
//    working set exceeds the region);
//  * the locality query behind Algorithm 5.1: which GPU holds the most
//    cached bytes of a GWork's inputs.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gwork.hpp"
#include "gpu/device.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulation.hpp"

namespace gflink::core {

enum class CachePolicy : std::uint8_t { Fifo, NoEvict };

class GMemoryManager {
 public:
  struct CacheEntry {
    gpu::DevicePtr ptr = 0;
    std::uint64_t bytes = 0;
  };

  GMemoryManager(std::vector<gpu::GpuDevice*> devices, std::uint64_t region_capacity,
                 CachePolicy policy)
      : devices_(std::move(devices)), region_capacity_(region_capacity), policy_(policy),
        regions_(devices_.size()), staging_bytes_(devices_.size(), 0) {}

  /// Attach the node's flight recorder: cache evictions and staging-ring
  /// failures become flight events (memory pressure is the usual suspect
  /// when a fault dump is being read). `sim` supplies the clock.
  void attach_flight(obs::FlightRecorder* flight, int node, sim::Simulation* sim) {
    flight_ = flight;
    flight_node_ = node;
    flight_sim_ = sim;
  }

  int num_devices() const { return static_cast<int>(devices_.size()); }
  CachePolicy policy() const { return policy_; }
  std::uint64_t region_capacity() const { return region_capacity_; }

  /// Cache lookup on one device. A hit refreshes nothing (FIFO, not LRU —
  /// matching the paper).
  std::optional<CacheEntry> lookup(int device, std::uint64_t job, std::uint64_t key) const;

  /// Lookup that also pins the entry against eviction (used by in-flight
  /// GWork; must be paired with unpin()).
  std::optional<CacheEntry> lookup_pinned(int device, std::uint64_t job, std::uint64_t key);

  /// Try to cache `bytes` under `key`: evicts FIFO-oldest *unpinned*
  /// entries when the region is full (Fifo policy) or declines (NoEvict /
  /// oversized). Returns the device allocation to fill — pinned; the caller
  /// must unpin() once its GWork is done with it.
  std::optional<CacheEntry> insert(int device, std::uint64_t job, std::uint64_t key,
                                   std::uint64_t bytes);

  /// Release a pin taken by lookup_pinned()/insert().
  void unpin(int device, std::uint64_t job, std::uint64_t key);

  /// Undo of insert(): drop an entry the caller just inserted (and still
  /// holds the pin of) before any data was transferred into it — used when
  /// a chunked execution aborts during placement. If another stream pinned
  /// the entry meanwhile it is left in place (only this caller's pin is
  /// released). Returns true when the entry was removed.
  bool erase(int device, std::uint64_t job, std::uint64_t key);

  /// Relieve device-memory pressure: evict unpinned cached entries of `job`
  /// (FIFO order) until at least `bytes` are free on the device or nothing
  /// evictable remains. Returns true if the space is now available. Used
  /// when a transient cudaMalloc fails because the cache grew into all of
  /// the device memory.
  bool evict_for_space(int device, std::uint64_t job, std::uint64_t bytes);

  /// Release a job's region on every device (job end / GFlink stop). Also
  /// forgets the job's tenant mapping.
  void release_job(std::uint64_t job);

  // ---- Multi-tenant quota accounting (JobService) --------------------------
  //
  // Jobs are mapped to tenants; a tenant may carry a per-device byte quota
  // over the *sum* of its jobs' cache regions. Quotas change two things:
  //  * insert() keeps the inserting tenant at or under its quota by first
  //    evicting that tenant's own globally-oldest unpinned entries;
  //  * under device pressure (failed allocation, staging reservation), the
  //    eviction order prefers *over-quota* tenants — an under-quota tenant's
  //    entry is never evicted cross-tenant while an over-quota victim with
  //    an unpinned entry exists (self-eviction by the requester is always
  //    allowed).
  // Unmapped jobs belong to the default tenant "" which has no quota; with
  // no tenants configured every path below reduces to the single-job
  // behavior.

  /// Tag `job` as belonging to `tenant` (idempotent; call before caching).
  void set_job_tenant(std::uint64_t job, const std::string& tenant);

  /// Set `tenant`'s per-device cache quota in bytes (0 removes the quota).
  void set_tenant_quota(const std::string& tenant, std::uint64_t bytes);

  /// Bytes of cache currently held by `tenant` on `device` across its jobs.
  std::uint64_t tenant_cached_bytes(int device, const std::string& tenant) const;

  /// Cumulative bytes `tenant` has inserted into this manager's caches —
  /// the achieved-cache-share numerator for fairness reporting (current
  /// occupancy is ~0 once jobs release their regions).
  std::uint64_t tenant_inserted_bytes(const std::string& tenant) const;

  /// Entries evicted from one tenant to relieve another's device pressure.
  std::uint64_t cross_tenant_evictions() const { return cross_tenant_evictions_; }

  /// Reserve a device staging ring for the chunked transfer/compute
  /// pipeline: a transient allocation that coexists with the cache regions
  /// and, under pressure, evicts `job`'s unpinned cached entries to make
  /// room (never pinned ones — reservation *fails* rather than waits, so a
  /// fully pinned cache can never deadlock the pipeline; callers fall back
  /// to monolithic execution). Returns 0 on failure. Pair with
  /// release_staging().
  gpu::DevicePtr reserve_staging(int device, std::uint64_t job, std::uint64_t bytes);
  void release_staging(int device, gpu::DevicePtr ptr);

  /// Bytes currently reserved as staging rings on `device`.
  std::uint64_t staging_bytes(int device) const {
    return staging_bytes_.empty() ? 0 : staging_bytes_.at(static_cast<std::size_t>(device));
  }

  /// Algorithm 5.1's locality probe: the device holding the most cached
  /// input bytes for this work, or -1 when nothing is cached anywhere.
  int best_device_for(const GWork& work) const;

  /// Bytes of `work`'s inputs already cached on `device`.
  std::uint64_t cached_input_bytes(int device, const GWork& work) const;

  // Statistics.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t pins() const { return pins_; }
  std::uint64_t staging_reservations() const { return staging_reservations_; }
  std::uint64_t staging_failures() const { return staging_failures_; }
  std::uint64_t cached_bytes(int device, std::uint64_t job) const;
  /// Bytes currently occupied by cache regions on `device`, across jobs.
  std::uint64_t region_used(int device) const {
    std::uint64_t used = 0;
    for (const auto& [job, region] : regions_.at(static_cast<std::size_t>(device))) {
      used += region.used;
    }
    return used;
  }

 private:
  struct Slot {
    CacheEntry entry;
    int pins = 0;  // in-flight GWork references; pinned slots never evict
    /// Global insertion sequence: the cross-job/cross-tenant FIFO order
    /// (a per-region FIFO cannot order victims across regions).
    std::uint64_t seq = 0;
  };
  struct Region {
    std::uint64_t used = 0;
    std::unordered_map<std::uint64_t, Slot> table;
    std::deque<std::uint64_t> fifo;  // insertion order of keys
  };

  // Per-device map: job id -> region.
  using JobRegions = std::unordered_map<std::uint64_t, Region>;

  Region* find_region(int device, std::uint64_t job);
  const Region* find_region(int device, std::uint64_t job) const;
  std::string tenant_of(std::uint64_t job) const;
  /// Evict `tenant`'s globally-oldest unpinned entry on `device` (any of
  /// its jobs). False when the tenant has nothing evictable there.
  bool evict_tenant_oldest(int device, const std::string& tenant);
  bool has_unpinned(int device, const std::string& tenant) const;
  /// Cross-tenant relief: evict the oldest unpinned entry of the *most
  /// over-quota* tenant on `device`. False when no over-quota tenant has an
  /// evictable entry — callers must then fall back to self-eviction or give
  /// up, never take an under-quota tenant's entry.
  bool evict_over_quota(int device);
  void evict_slot(int device, Region& r, std::uint64_t key);

  void note_flight(const char* what, int device, std::uint64_t bytes) const {
    if (flight_ == nullptr || flight_sim_ == nullptr) return;
    flight_->note_event(flight_sim_->now(), flight_node_,
                        what, "gpu" + std::to_string(device) + " " + std::to_string(bytes) +
                                  " bytes");
  }

  std::vector<gpu::GpuDevice*> devices_;
  std::uint64_t region_capacity_;
  CachePolicy policy_;
  // Flight hook (see attach_flight()).
  obs::FlightRecorder* flight_ = nullptr;
  int flight_node_ = -1;
  sim::Simulation* flight_sim_ = nullptr;
  std::vector<JobRegions> regions_;
  std::vector<std::uint64_t> staging_bytes_;
  std::unordered_map<std::uint64_t, std::string> job_tenant_;
  std::unordered_map<std::string, std::uint64_t> tenant_quota_;
  std::unordered_map<std::string, std::uint64_t> tenant_inserted_;
  std::uint64_t next_seq_ = 0;
  mutable std::uint64_t hits_ = 0;  // lookup() is const but counts hits
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t pins_ = 0;
  std::uint64_t staging_reservations_ = 0;
  std::uint64_t staging_failures_ = 0;
  std::uint64_t cross_tenant_evictions_ = 0;
};

}  // namespace gflink::core
