// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// GpuDevice: one simulated GPU board — device memory, DMA copy engines and
// a compute engine, with real data movement into shadow memory and modelled
// durations.
//
// Engine model:
//  * compute engine: kernels serialize FIFO (large data-parallel kernels
//    saturate the SMs, so concurrent kernels would timeslice anyway);
//  * copy engines: boards with two DMA engines copy H2D and D2H in full
//    duplex; boards with one serialize both directions (paper §4.1.2).
// Overlap of copies with kernels — the three-stage pipeline — falls out of
// the engines being independent resources.
#pragma once

#include <string>

#include "gpu/device_memory.hpp"
#include "gpu/device_spec.hpp"
#include "gpu/kernel.hpp"
#include "mem/buffer.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"

namespace gflink::gpu {

class GpuDevice {
 public:
  GpuDevice(sim::Simulation& sim, std::string id, const DeviceSpec& spec,
            sim::Tracer* tracer = nullptr);

  const std::string& id() const { return id_; }
  const DeviceSpec& spec() const { return spec_; }
  DeviceMemory& memory() { return memory_; }
  const DeviceMemory& memory() const { return memory_; }
  sim::Simulation& sim() { return *sim_; }

  /// Unloaded duration of one DMA transfer.
  sim::Duration dma_time(std::uint64_t bytes, bool pinned) const;

  /// Copy host buffer bytes to device memory (occupies the H2D engine).
  /// Non-off-heap buffers pay a host staging copy first; non-pinned buffers
  /// move at reduced bandwidth.
  sim::Co<void> copy_h2d(const mem::HBuffer& src, std::size_t src_offset, DevicePtr dst,
                         std::uint64_t bytes, const std::string& label = {});

  /// Copy device memory back to a host buffer (occupies the D2H engine).
  sim::Co<void> copy_d2h(DevicePtr src, mem::HBuffer& dst, std::size_t dst_offset,
                         std::uint64_t bytes, const std::string& label = {});

  /// Run a kernel over device buffers (occupies the compute engine).
  /// `buffers` are (ptr, len) pairs bound in order; `layout` is the actual
  /// layout of the data, which scales effective memory bandwidth.
  struct BufferBinding {
    DevicePtr ptr;
    std::uint64_t len;
  };
  sim::Co<void> launch(const Kernel& kernel, const std::vector<BufferBinding>& buffers,
                       std::size_t items, mem::Layout layout, int block_size = 256,
                       int grid_size = 0, const void* params = nullptr,
                       const std::string& label = {});

  /// Run a kernel over *device-mapped host memory* (paper §4.1.2): the SMs
  /// read the host buffers across PCIe during execution, so there is no
  /// explicit copy and no copy-engine occupancy — the price is that the
  /// kernel's memory bandwidth is capped at PCIe speed. This is how
  /// single-copy-engine boards reach full-duplex behaviour.
  sim::Co<void> launch_mapped(const Kernel& kernel, std::vector<std::span<std::byte>> host_spans,
                              std::size_t items, mem::Layout layout,
                              const std::string& label = {});

  // Statistics.
  std::uint64_t bytes_h2d() const { return bytes_h2d_; }
  std::uint64_t bytes_d2h() const { return bytes_d2h_; }
  std::uint64_t kernels_launched() const { return kernels_launched_; }
  sim::Duration kernel_busy() const { return kernel_busy_; }
  sim::Duration h2d_busy() const { return h2d_busy_; }
  sim::Duration d2h_busy() const { return d2h_busy_; }
  /// Virtual time during which at least one copy engine and the compute
  /// engine were busy simultaneously — the time the chunked pipeline (and
  /// multi-stream execution) actually hides behind kernels.
  sim::Duration copy_compute_overlap() const { return overlap_ns_; }
  /// overlap / min(copy busy, kernel busy): 1.0 means every byte moved
  /// while a kernel ran (perfect hiding); 0 means fully serialized.
  double overlap_efficiency() const;

 private:
  sim::Co<void> dma(sim::Mutex& engine, const char* lane, std::uint64_t bytes, bool pinned,
                    bool off_heap, const std::string& label, sim::Duration& busy);

  /// Engine-activity bookkeeping behind copy_compute_overlap(): called at
  /// every busy-state transition of a copy or compute engine.
  void mark_engine(bool copy, int delta);

  sim::Simulation* sim_;
  std::string id_;
  DeviceSpec spec_;
  DeviceMemory memory_;
  sim::Tracer* tracer_;

  sim::Mutex compute_;
  sim::Mutex copy_a_;  // H2D engine (and D2H when copy_engines == 1)
  sim::Mutex copy_b_;  // D2H engine (unused when copy_engines == 1)

  std::uint64_t bytes_h2d_ = 0;
  std::uint64_t bytes_d2h_ = 0;
  std::uint64_t kernels_launched_ = 0;
  sim::Duration kernel_busy_ = 0;
  sim::Duration h2d_busy_ = 0;
  sim::Duration d2h_busy_ = 0;

  // Copy-compute overlap accounting: between transitions the active sets
  // are constant, so overlap accrues whenever both counts are non-zero.
  int active_copies_ = 0;
  int active_kernels_ = 0;
  sim::Time last_engine_mark_ = 0;
  sim::Duration overlap_ns_ = 0;

  /// Host-side memcpy bandwidth for JVM-heap staging copies (the cost the
  /// off-heap design removes).
  static constexpr double kHeapCopyBandwidth = 4.0e9;
};

}  // namespace gflink::gpu
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
