#include "core/gmemory_manager.hpp"

#include <algorithm>

namespace gflink::core {

GMemoryManager::Region* GMemoryManager::find_region(int device, std::uint64_t job) {
  auto& jobs = regions_.at(static_cast<std::size_t>(device));
  auto it = jobs.find(job);
  return it == jobs.end() ? nullptr : &it->second;
}

const GMemoryManager::Region* GMemoryManager::find_region(int device, std::uint64_t job) const {
  const auto& jobs = regions_.at(static_cast<std::size_t>(device));
  auto it = jobs.find(job);
  return it == jobs.end() ? nullptr : &it->second;
}

std::optional<GMemoryManager::CacheEntry> GMemoryManager::lookup(int device, std::uint64_t job,
                                                                 std::uint64_t key) const {
  const Region* r = find_region(device, job);
  if (r == nullptr) return std::nullopt;
  auto it = r->table.find(key);
  if (it == r->table.end()) return std::nullopt;
  ++hits_;
  return it->second.entry;
}

std::optional<GMemoryManager::CacheEntry> GMemoryManager::lookup_pinned(int device,
                                                                        std::uint64_t job,
                                                                        std::uint64_t key) {
  Region* r = find_region(device, job);
  if (r == nullptr) return std::nullopt;
  auto it = r->table.find(key);
  if (it == r->table.end()) return std::nullopt;
  ++hits_;
  ++it->second.pins;
  ++pins_;
  return it->second.entry;
}

std::optional<GMemoryManager::CacheEntry> GMemoryManager::insert(int device, std::uint64_t job,
                                                                 std::uint64_t key,
                                                                 std::uint64_t bytes) {
  ++misses_;
  if (bytes > region_capacity_) return std::nullopt;  // can never fit
  auto& jobs = regions_.at(static_cast<std::size_t>(device));
  Region& r = jobs[job];  // region lazily "reserved" on first touch
  gpu::GpuDevice& dev = *devices_.at(static_cast<std::size_t>(device));

  // Replacing an existing (e.g. undersized) entry: drop the old one first.
  if (auto old = r.table.find(key); old != r.table.end()) {
    if (old->second.pins > 0) return std::nullopt;  // in use; do not thrash
    dev.memory().free(old->second.entry.ptr);
    r.used -= old->second.entry.bytes;
    r.table.erase(old);
    std::erase(r.fifo, key);
  }

  if (r.used + bytes > region_capacity_) {
    if (policy_ == CachePolicy::NoEvict) return std::nullopt;
    // FIFO policy (paper §4.2.2, Fig. 3): walk the FIFO list from the
    // oldest entry, collecting unpinned victims until the new object fits.
    std::uint64_t reclaimable = 0;
    std::vector<std::uint64_t> victims;
    for (std::uint64_t candidate : r.fifo) {
      if (r.used - reclaimable + bytes <= region_capacity_) break;
      auto it = r.table.find(candidate);
      GFLINK_CHECK(it != r.table.end());
      if (it->second.pins > 0) continue;  // in-flight: skip
      reclaimable += it->second.entry.bytes;
      victims.push_back(candidate);
    }
    if (r.used - reclaimable + bytes > region_capacity_) return std::nullopt;
    for (std::uint64_t victim : victims) {
      evict_slot(device, r, victim);
    }
  }

  // Tenant quota: keep the inserting tenant at or under its per-device
  // quota by first shrinking that tenant's own cache (globally-oldest
  // unpinned entry across its jobs). Declines when the tenant's pinned
  // working set already fills the quota.
  const std::string tenant = tenant_of(job);
  if (auto q = tenant_quota_.find(tenant); q != tenant_quota_.end() && q->second > 0) {
    if (bytes > q->second) return std::nullopt;  // can never fit in quota
    while (tenant_cached_bytes(device, tenant) + bytes > q->second) {
      if (!evict_tenant_oldest(device, tenant)) return std::nullopt;
    }
  }

  gpu::DevicePtr ptr = dev.memory().allocate(bytes);
  while (ptr == 0) {
    // Device OOM outside the region model: prefer over-quota tenants'
    // entries, then the requester's own tenant; an under-quota peer is
    // never the victim while either of those can give space back.
    if (!evict_over_quota(device) && !evict_tenant_oldest(device, tenant)) {
      return std::nullopt;
    }
    ptr = dev.memory().allocate(bytes);
  }
  Slot slot;
  slot.entry = CacheEntry{ptr, bytes};
  slot.pins = 1;  // returned pinned for the inserting GWork
  slot.seq = next_seq_++;
  ++pins_;
  r.table.emplace(key, slot);
  r.fifo.push_back(key);
  r.used += bytes;
  tenant_inserted_[tenant] += bytes;
  return slot.entry;
}

void GMemoryManager::unpin(int device, std::uint64_t job, std::uint64_t key) {
  Region* r = find_region(device, job);
  if (r == nullptr) return;  // job already released
  auto it = r->table.find(key);
  if (it == r->table.end()) return;  // entry replaced meanwhile
  GFLINK_CHECK_MSG(it->second.pins > 0, "unpin without matching pin");
  --it->second.pins;
}

bool GMemoryManager::erase(int device, std::uint64_t job, std::uint64_t key) {
  Region* r = find_region(device, job);
  if (r == nullptr) return false;
  auto it = r->table.find(key);
  if (it == r->table.end()) return false;
  GFLINK_CHECK_MSG(it->second.pins > 0, "erase without matching pin");
  --it->second.pins;
  if (it->second.pins > 0) return false;  // another stream is using it
  devices_.at(static_cast<std::size_t>(device))->memory().free(it->second.entry.ptr);
  r->used -= it->second.entry.bytes;
  r->table.erase(it);
  std::erase(r->fifo, key);
  return true;
}

bool GMemoryManager::evict_for_space(int device, std::uint64_t job, std::uint64_t bytes) {
  // Contiguity-aware: free_bytes() can exceed `bytes` while no single hole
  // fits (the fragmented-heap case); keep evicting until a hole does.
  // Victim order: the requesting job's own FIFO-oldest unpinned entries
  // first (single-job behavior, and what the staging ring leans on), then
  // over-quota tenants. Under-quota peers are never touched.
  gpu::GpuDevice& dev = *devices_.at(static_cast<std::size_t>(device));
  Region* r = find_region(device, job);
  while (!dev.memory().can_allocate(bytes)) {
    bool evicted = false;
    if (r != nullptr) {
      for (auto it = r->fifo.begin(); it != r->fifo.end(); ++it) {
        auto slot = r->table.find(*it);
        GFLINK_CHECK(slot != r->table.end());
        if (slot->second.pins == 0) {
          evict_slot(device, *r, *it);
          evicted = true;
          break;
        }
      }
    }
    if (!evicted && !evict_over_quota(device)) break;  // nothing evictable
  }
  return dev.memory().can_allocate(bytes);
}

void GMemoryManager::evict_slot(int device, Region& r, std::uint64_t key) {
  auto it = r.table.find(key);
  GFLINK_CHECK(it != r.table.end());
  GFLINK_CHECK_MSG(it->second.pins == 0, "evicting a pinned cache entry");
  note_flight("cache_evict", device, it->second.entry.bytes);
  devices_.at(static_cast<std::size_t>(device))->memory().free(it->second.entry.ptr);
  r.used -= it->second.entry.bytes;
  r.table.erase(it);
  std::erase(r.fifo, key);
  ++evictions_;
}

std::string GMemoryManager::tenant_of(std::uint64_t job) const {
  auto it = job_tenant_.find(job);
  return it == job_tenant_.end() ? std::string() : it->second;
}

std::uint64_t GMemoryManager::tenant_cached_bytes(int device, const std::string& tenant) const {
  std::uint64_t used = 0;
  for (const auto& [job, region] : regions_.at(static_cast<std::size_t>(device))) {
    if (tenant_of(job) == tenant) used += region.used;
  }
  return used;
}

bool GMemoryManager::evict_tenant_oldest(int device, const std::string& tenant) {
  auto& jobs = regions_.at(static_cast<std::size_t>(device));
  Region* victim_region = nullptr;
  std::uint64_t victim_key = 0;
  std::uint64_t victim_seq = ~0ULL;
  for (auto& [job, region] : jobs) {
    if (tenant_of(job) != tenant) continue;
    for (const auto& [key, slot] : region.table) {
      if (slot.pins > 0) continue;
      if (slot.seq < victim_seq) {
        victim_seq = slot.seq;
        victim_region = &region;
        victim_key = key;
      }
    }
  }
  if (victim_region == nullptr) return false;
  evict_slot(device, *victim_region, victim_key);
  return true;
}

bool GMemoryManager::evict_over_quota(int device) {
  // Victim tenant: the one furthest over its quota that still has an
  // unpinned entry on this device. Tenants without a quota (including the
  // default "") are never cross-tenant victims.
  std::string victim;
  bool found = false;
  std::uint64_t best_overage = 0;
  for (const auto& [tenant, quota] : tenant_quota_) {
    if (quota == 0) continue;
    const std::uint64_t used = tenant_cached_bytes(device, tenant);
    if (used <= quota) continue;
    const std::uint64_t overage = used - quota;
    if ((!found || overage > best_overage) && has_unpinned(device, tenant)) {
      found = true;
      best_overage = overage;
      victim = tenant;
    }
  }
  if (!found) return false;
  const bool evicted = evict_tenant_oldest(device, victim);
  GFLINK_CHECK(evicted);
  ++cross_tenant_evictions_;
  note_flight("cross_tenant_evict", device, 0);
  return true;
}

gpu::DevicePtr GMemoryManager::reserve_staging(int device, std::uint64_t job,
                                               std::uint64_t bytes) {
  gpu::GpuDevice& dev = *devices_.at(static_cast<std::size_t>(device));
  gpu::DevicePtr ptr = dev.memory().allocate(bytes);
  if (ptr == 0 && evict_for_space(device, job, bytes)) {
    ptr = dev.memory().allocate(bytes);
  }
  if (ptr == 0) {
    ++staging_failures_;
    note_flight("staging_failure", device, bytes);
    return 0;
  }
  ++staging_reservations_;
  staging_bytes_.at(static_cast<std::size_t>(device)) += dev.memory().allocation_size(ptr);
  return ptr;
}

void GMemoryManager::release_staging(int device, gpu::DevicePtr ptr) {
  gpu::GpuDevice& dev = *devices_.at(static_cast<std::size_t>(device));
  staging_bytes_.at(static_cast<std::size_t>(device)) -= dev.memory().allocation_size(ptr);
  dev.memory().free(ptr);
}

void GMemoryManager::release_job(std::uint64_t job) {
  for (std::size_t d = 0; d < regions_.size(); ++d) {
    auto it = regions_[d].find(job);
    if (it == regions_[d].end()) continue;
    for (auto& [key, slot] : it->second.table) {
      devices_[d]->memory().free(slot.entry.ptr);
    }
    regions_[d].erase(it);
  }
  job_tenant_.erase(job);
}

bool GMemoryManager::has_unpinned(int device, const std::string& tenant) const {
  for (const auto& [job, region] : regions_.at(static_cast<std::size_t>(device))) {
    if (tenant_of(job) != tenant) continue;
    for (const auto& [key, slot] : region.table) {
      if (slot.pins == 0) return true;
    }
  }
  return false;
}

void GMemoryManager::set_job_tenant(std::uint64_t job, const std::string& tenant) {
  job_tenant_[job] = tenant;
}

void GMemoryManager::set_tenant_quota(const std::string& tenant, std::uint64_t bytes) {
  if (bytes == 0) {
    tenant_quota_.erase(tenant);
  } else {
    tenant_quota_[tenant] = bytes;
  }
}

std::uint64_t GMemoryManager::tenant_inserted_bytes(const std::string& tenant) const {
  auto it = tenant_inserted_.find(tenant);
  return it == tenant_inserted_.end() ? 0 : it->second;
}

std::uint64_t GMemoryManager::cached_input_bytes(int device, const GWork& work) const {
  const Region* r = find_region(device, work.job_id);
  if (r == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& in : work.inputs) {
    if (!in.cache || !in.counts_for_locality) continue;
    auto it = r->table.find(in.cache_key);
    if (it != r->table.end()) total += it->second.entry.bytes;
  }
  return total;
}

int GMemoryManager::best_device_for(const GWork& work) const {
  int best = -1;
  std::uint64_t best_bytes = 0;
  for (int d = 0; d < num_devices(); ++d) {
    const std::uint64_t bytes = cached_input_bytes(d, work);
    if (bytes > best_bytes) {
      best_bytes = bytes;
      best = d;
    }
  }
  return best;
}

std::uint64_t GMemoryManager::cached_bytes(int device, std::uint64_t job) const {
  const Region* r = find_region(device, job);
  return r == nullptr ? 0 : r->used;
}

}  // namespace gflink::core
