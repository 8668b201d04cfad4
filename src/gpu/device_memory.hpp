// Device memory: a first-fit free-list allocator over the GPU's address
// range, with host-shadow storage for allocation contents.
//
// The simulator cannot (and need not) reserve real gigabytes: the address
// arithmetic runs over the full virtual capacity, while actual bytes are
// materialized per allocation ("shadow"), sized by what experiments really
// ship. Kernels read and write these shadows, so results are real.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/util.hpp"

namespace gflink::gpu {

/// Opaque device pointer (offset within the device's address range; 0 is
/// never returned, mirroring CUDA's non-null devptrs).
using DevicePtr = std::uint64_t;

class DeviceMemory {
 public:
  explicit DeviceMemory(std::uint64_t capacity);

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t free_bytes() const { return capacity_ - allocated(); }

  /// First-fit allocation; returns 0 when no hole fits (cudaMalloc OOM).
  DevicePtr allocate(std::uint64_t bytes);

  /// Whether allocate(bytes) would succeed right now: a contiguous hole of
  /// the aligned size exists (free_bytes() overstates what a fragmented
  /// heap can satisfy).
  bool can_allocate(std::uint64_t bytes) const;

  /// Free a pointer previously returned by allocate. Coalesces neighbours.
  void free(DevicePtr ptr);

  /// True if `ptr` is a live allocation base.
  bool live(DevicePtr ptr) const { return allocations_.count(ptr) != 0; }

  std::uint64_t allocation_size(DevicePtr ptr) const;

  /// Host shadow bytes of the allocation containing [ptr, ptr+len). The
  /// range must lie within a single live allocation.
  std::byte* shadow(DevicePtr ptr, std::uint64_t len);
  const std::byte* shadow(DevicePtr ptr, std::uint64_t len) const;

  std::size_t allocation_count() const { return allocations_.size(); }

 private:
  struct Allocation {
    std::uint64_t size;
    std::vector<std::byte> bytes;
  };

  // Returns iterator to the allocation containing ptr, or aborts.
  std::map<DevicePtr, Allocation>::const_iterator containing(DevicePtr ptr,
                                                            std::uint64_t len) const;

  std::uint64_t capacity_;
  std::uint64_t allocated_ = 0;
  std::map<DevicePtr, Allocation> allocations_;   // keyed by base pointer
  std::map<DevicePtr, std::uint64_t> free_list_;  // base -> size, coalesced
};

}  // namespace gflink::gpu
