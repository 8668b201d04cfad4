// Tests for the GFlink core: GWork, GMemoryManager (cache scheme),
// GStreamManager (Algorithms 5.1/5.2, pipelining), GpuManager and the GDST
// block-processing layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "core/gdst.hpp"
#include "core/gmemory_manager.hpp"
#include "core/gpu_manager.hpp"
#include "core/gstream_manager.hpp"
#include "core/gwork.hpp"
#include "dataflow/dataset.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace gpu = gflink::gpu;
namespace df = gflink::dataflow;
namespace core = gflink::core;
using core::GBuffer;
using core::GWork;
using core::GWorkPtr;
using sim::Co;
using sim::Simulation;

namespace {

struct KV {
  std::uint64_t key;
  std::int64_t value;
};

const mem::StructDesc& kv_desc() {
  static const mem::StructDesc d = mem::StructDescBuilder("KV", 8)
                                       .field("key", mem::FieldType::U64, 1, offsetof(KV, key))
                                       .field("value", mem::FieldType::I64, 1, offsetof(KV, value))
                                       .build();
  return d;
}

// Kernel: out[i] = {in[i].key, 2 * in[i].value}. Buffers: [in, out].
void register_test_kernels() {
  static bool done = false;
  if (done) return;
  done = true;
  gpu::Kernel k;
  k.name = "core_double_kv";
  k.cost = {4.0, 32.0, 0.0};
  k.fn = [](gpu::KernelLaunch& launch) {
    const KV* in = reinterpret_cast<const KV*>(launch.buffers[0].data());
    KV* out = reinterpret_cast<KV*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) out[i] = KV{in[i].key, 2 * in[i].value};
  };
  gpu::KernelRegistry::global().register_kernel(k);

  // Kernel with an aux buffer: out[i] = in[i].value + aux[0].value.
  gpu::Kernel k2;
  k2.name = "core_add_aux";
  k2.cost = {2.0, 32.0, 0.0};
  k2.fn = [](gpu::KernelLaunch& launch) {
    const KV* in = reinterpret_cast<const KV*>(launch.buffers[0].data());
    const KV* aux = reinterpret_cast<const KV*>(launch.buffers[1].data());
    KV* out = reinterpret_cast<KV*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) {
      out[i] = KV{in[i].key, in[i].value + aux[0].value};
    }
  };
  gpu::KernelRegistry::global().register_kernel(k2);

  // Block reducer: one output record holding the sum of the block.
  gpu::Kernel k3;
  k3.name = "core_block_sum";
  k3.cost = {1.0, 16.0, 0.0};
  k3.fn = [](gpu::KernelLaunch& launch) {
    const KV* in = reinterpret_cast<const KV*>(launch.buffers[0].data());
    KV* out = reinterpret_cast<KV*>(launch.buffers.back().data());
    KV acc{0, 0};
    for (std::size_t i = 0; i < launch.items; ++i) acc.value += in[i].value;
    out[0] = acc;
  };
  gpu::KernelRegistry::global().register_kernel(k3);
}

/// Standalone GPU fixture: two devices + wrappers + cache manager + streams.
struct StreamFixture {
  Simulation s;
  sim::Tracer tracer{true};
  gpu::GpuDevice dev0, dev1;
  gpu::CudaStub stub0, stub1;
  gpu::CudaWrapper wrap0, wrap1;
  core::GMemoryManager memory;
  core::GStreamManager streams;
  mem::AddressSpace addresses;

  explicit StreamFixture(core::GStreamConfig cfg = {}, gpu::DeviceSpec spec0 = test_spec(),
                         gpu::DeviceSpec spec1 = test_spec())
      : dev0(s, "gpu0", spec0, &tracer),
        dev1(s, "gpu1", spec1, &tracer),
        stub0(dev0),
        stub1(dev1),
        wrap0(stub0),
        wrap1(stub1),
        memory({&dev0, &dev1}, 1 << 20, core::CachePolicy::Fifo),
        streams(s, {&wrap0, &wrap1}, memory, cfg) {
    register_test_kernels();
  }

  static gpu::DeviceSpec test_spec() {
    gpu::DeviceSpec spec;
    spec.name = "t";
    spec.peak_flops = 1e12;
    spec.kernel_efficiency = 0.5;
    spec.mem_bandwidth = 100e9;
    spec.device_memory = 256 << 20;
    spec.copy_engines = 2;
    spec.pcie_bandwidth = 1e9;
    spec.pcie_latency = 0;
    spec.kernel_launch_overhead = 0;
    return spec;
  }

  /// Build a GWork doubling `n` KVs.
  GWorkPtr make_work(std::size_t n, bool cache = false, std::uint64_t key = 0,
                     std::uint64_t job = 1) {
    auto in = std::make_shared<mem::HBuffer>(n * sizeof(KV), addresses.allocate(n * sizeof(KV)));
    in->set_pinned(true);
    auto* vals = reinterpret_cast<KV*>(in->data());
    for (std::size_t i = 0; i < n; ++i) vals[i] = KV{i, static_cast<std::int64_t>(i)};
    auto out =
        std::make_shared<mem::HBuffer>(n * sizeof(KV), addresses.allocate(n * sizeof(KV)));
    out->set_pinned(true);
    auto work = std::make_shared<GWork>();
    work->execute_name = "core_double_kv";
    work->size = n;
    work->job_id = job;
    GBuffer ib;
    ib.host = in;
    ib.bytes = n * sizeof(KV);
    ib.cache = cache;
    ib.cache_key = key;
    work->inputs.push_back(ib);
    GBuffer ob;
    ob.host = out;
    ob.bytes = n * sizeof(KV);
    work->outputs.push_back(ob);
    return work;
  }
};

}  // namespace

// ---- GMemoryManager ---------------------------------------------------------

TEST(GMemoryManager, MissThenHit) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::Fifo);
  EXPECT_FALSE(m.lookup(0, 1, 42).has_value());
  auto slot = m.insert(0, 1, 42, 256);
  ASSERT_TRUE(slot.has_value());
  EXPECT_NE(slot->ptr, 0u);
  auto hit = m.lookup(0, 1, 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ptr, slot->ptr);
  EXPECT_EQ(m.hits(), 1u);
  EXPECT_EQ(m.misses(), 1u);
}

TEST(GMemoryManager, JobsAreIsolated) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::Fifo);
  m.insert(0, 1, 42, 128);
  EXPECT_FALSE(m.lookup(0, 2, 42).has_value());
}

TEST(GMemoryManager, FifoEvictsOldestFirst) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::Fifo);
  ASSERT_TRUE(m.insert(0, 1, 1, 400).has_value());
  m.unpin(0, 1, 1);
  ASSERT_TRUE(m.insert(0, 1, 2, 400).has_value());
  m.unpin(0, 1, 2);
  // 400 more does not fit: key 1 (oldest) must be evicted, key 2 kept.
  ASSERT_TRUE(m.insert(0, 1, 3, 400).has_value());
  m.unpin(0, 1, 3);
  EXPECT_FALSE(m.lookup(0, 1, 1).has_value());
  EXPECT_TRUE(m.lookup(0, 1, 2).has_value());
  EXPECT_TRUE(m.lookup(0, 1, 3).has_value());
  EXPECT_EQ(m.evictions(), 1u);
}

TEST(GMemoryManager, NoEvictPolicyDeclinesWhenFull) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::NoEvict);
  ASSERT_TRUE(m.insert(0, 1, 1, 600).has_value());
  EXPECT_FALSE(m.insert(0, 1, 2, 600).has_value());
  EXPECT_TRUE(m.lookup(0, 1, 1).has_value());
  EXPECT_EQ(m.evictions(), 0u);
}

TEST(GMemoryManager, OversizedObjectNeverCached) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::Fifo);
  EXPECT_FALSE(m.insert(0, 1, 1, 2048).has_value());
}

TEST(GMemoryManager, ReleaseJobFreesDeviceMemory) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1 << 20, core::CachePolicy::Fifo);
  m.insert(0, 7, 1, 1000);
  m.insert(0, 7, 2, 1000);
  EXPECT_GT(dev.memory().allocated(), 0u);
  EXPECT_EQ(m.region_used(0), 2000u);
  m.release_job(7);
  EXPECT_EQ(dev.memory().allocated(), 0u);
  EXPECT_EQ(m.region_used(0), 0u);
  EXPECT_FALSE(m.lookup(0, 7, 1).has_value());
}

TEST(GMemoryManager, BestDeviceTracksCachedInputBytes) {
  Simulation s;
  gpu::GpuDevice d0(s, "g0", StreamFixture::test_spec());
  gpu::GpuDevice d1(s, "g1", StreamFixture::test_spec());
  core::GMemoryManager m({&d0, &d1}, 1 << 20, core::CachePolicy::Fifo);
  GWork work;
  work.job_id = 1;
  GBuffer in;
  in.cache = true;
  in.cache_key = 99;
  in.bytes = 4096;
  work.inputs.push_back(in);
  EXPECT_EQ(m.best_device_for(work), -1);
  m.insert(1, 1, 99, 4096);
  EXPECT_EQ(m.best_device_for(work), 1);
  EXPECT_EQ(m.cached_input_bytes(1, work), 4096u);
  EXPECT_EQ(m.cached_input_bytes(0, work), 0u);
}

// ---- Multi-tenant cache quotas (JobService) ---------------------------------

TEST(GMemoryManager, TenantQuotaEnforcedBySelfEviction) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::Fifo);
  m.set_job_tenant(1, "t");
  m.set_job_tenant(2, "t");
  m.set_tenant_quota("t", 512);
  ASSERT_TRUE(m.insert(0, 1, 1, 300).has_value());
  m.unpin(0, 1, 1);
  // Job 2 of the same tenant: 300 + 300 > 512, so the tenant's own oldest
  // entry (job 1's) is evicted to stay under quota — cross-job, same tenant.
  ASSERT_TRUE(m.insert(0, 2, 2, 300).has_value());
  m.unpin(0, 2, 2);
  EXPECT_FALSE(m.lookup(0, 1, 1).has_value());
  EXPECT_TRUE(m.lookup(0, 2, 2).has_value());
  EXPECT_EQ(m.tenant_cached_bytes(0, "t"), 300u);
  EXPECT_EQ(m.tenant_inserted_bytes("t"), 600u);
  EXPECT_EQ(m.cross_tenant_evictions(), 0u);  // self-eviction is not cross-tenant
}

TEST(GMemoryManager, TenantQuotaDeclinesOversizedAndPinnedWorkingSet) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 4096, core::CachePolicy::Fifo);
  m.set_job_tenant(1, "t");
  m.set_tenant_quota("t", 512);
  EXPECT_FALSE(m.insert(0, 1, 1, 600).has_value());  // larger than the quota
  ASSERT_TRUE(m.insert(0, 1, 2, 400).has_value());   // pinned by insert
  // 400 pinned + 200 would exceed the quota and nothing is evictable.
  EXPECT_FALSE(m.insert(0, 1, 3, 200).has_value());
  m.unpin(0, 1, 2);
  EXPECT_TRUE(m.insert(0, 1, 3, 200).has_value());  // now key 2 can yield
}

TEST(GMemoryManager, DevicePressureEvictsOverQuotaTenantFirst) {
  Simulation s;
  auto spec = StreamFixture::test_spec();
  spec.device_memory = 1024;  // tiny device: cache regions contend for it
  gpu::GpuDevice dev(s, "g", spec);
  core::GMemoryManager m({&dev}, 4096, core::CachePolicy::Fifo);
  m.set_job_tenant(1, "over");
  m.set_job_tenant(2, "under");
  // "over" fills the device while unconstrained, then its quota shrinks.
  ASSERT_TRUE(m.insert(0, 1, 1, 300).has_value());
  m.unpin(0, 1, 1);
  ASSERT_TRUE(m.insert(0, 1, 2, 300).has_value());
  m.unpin(0, 1, 2);
  m.set_tenant_quota("over", 256);   // now 600 used > 256: over quota
  m.set_tenant_quota("under", 512);
  ASSERT_TRUE(m.insert(0, 2, 3, 200).has_value());
  m.unpin(0, 2, 3);
  // Device full (600 + 200 = 800 of 1024): "under" needs 300 more; the
  // victim must be "over"'s oldest entry, not anything of "under".
  ASSERT_TRUE(m.insert(0, 2, 4, 300).has_value());
  m.unpin(0, 2, 4);
  EXPECT_GE(m.cross_tenant_evictions(), 1u);
  EXPECT_FALSE(m.lookup(0, 1, 1).has_value());  // over's oldest evicted
  EXPECT_TRUE(m.lookup(0, 2, 3).has_value());   // under's entry untouched
  EXPECT_TRUE(m.lookup(0, 2, 4).has_value());
}

TEST(GMemoryManager, UnderQuotaTenantNeverEvictedCrossTenant) {
  Simulation s;
  auto spec = StreamFixture::test_spec();
  spec.device_memory = 1024;
  gpu::GpuDevice dev(s, "g", spec);
  core::GMemoryManager m({&dev}, 4096, core::CachePolicy::Fifo);
  m.set_job_tenant(1, "u");
  m.set_tenant_quota("u", 512);
  // Sizes are multiples of the 256 B device allocation granule.
  ASSERT_TRUE(m.insert(0, 1, 1, 256).has_value());  // "u": well under quota
  m.unpin(0, 1, 1);
  // Default tenant (no quota) fills the rest and keeps its entry pinned, so
  // it has nothing of its own to give back.
  ASSERT_TRUE(m.insert(0, 2, 2, 512).has_value());  // pinned by insert
  // 768 of 1024 used. No over-quota victim exists and the requester's own
  // entries are pinned: the insert must decline rather than evict "u".
  EXPECT_FALSE(m.insert(0, 2, 3, 512).has_value());
  EXPECT_EQ(m.cross_tenant_evictions(), 0u);
  EXPECT_TRUE(m.lookup(0, 1, 1).has_value());  // under-quota tenant untouched
}

TEST(GMemoryManager, ReleaseJobForgetsTenantMapping) {
  Simulation s;
  gpu::GpuDevice dev(s, "g", StreamFixture::test_spec());
  core::GMemoryManager m({&dev}, 1024, core::CachePolicy::Fifo);
  m.set_job_tenant(5, "t");
  m.set_tenant_quota("t", 256);
  ASSERT_TRUE(m.insert(0, 5, 1, 200).has_value());
  m.release_job(5);
  // Job 5's next incarnation (ids are unique, but defensively) and any job
  // without a mapping belong to the default tenant again: no quota applies.
  ASSERT_TRUE(m.insert(0, 5, 2, 600).has_value());
  EXPECT_EQ(m.tenant_cached_bytes(0, "t"), 0u);
}

// ---- GStreamManager ---------------------------------------------------------

TEST(GStreamManager, ExecutesWorkEndToEnd) {
  StreamFixture f;
  auto work = f.make_work(100);
  f.s.spawn([](core::GStreamManager& gs, GWorkPtr w) -> Co<void> {
    co_await gs.run(w);
  }(f.streams, work));
  f.s.run();
  EXPECT_TRUE(work->done->fired());
  EXPECT_GE(work->executed_on_gpu, 0);
  const KV* out = reinterpret_cast<const KV*>(work->outputs[0].host->data());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i].value, static_cast<std::int64_t>(2 * i));
  }
}

TEST(GStreamManager, ManyWorksBalanceAcrossGpus) {
  StreamFixture f;
  sim::WaitGroup wg(f.s);
  for (int i = 0; i < 40; ++i) {
    wg.add();
    auto work = f.make_work(50000);
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join) -> Co<void> {
      co_await gs.run(w);
      join.done();
    }(f.streams, work, wg));
  }
  f.s.run();
  const auto g0 = f.streams.executed_on(0);
  const auto g1 = f.streams.executed_on(1);
  EXPECT_EQ(g0 + g1, 40u);
  EXPECT_GT(g0, 10u);
  EXPECT_GT(g1, 10u);
}

TEST(GStreamManager, LocalityRoutesToCachedGpu) {
  StreamFixture f;
  // Warm the cache on GPU 1 for key 5 of job 9.
  f.memory.insert(1, 9, 5, 1600);
  std::vector<GWorkPtr> works;
  sim::WaitGroup wg(f.s);
  for (int i = 0; i < 4; ++i) {
    auto work = f.make_work(100, /*cache=*/true, /*key=*/5, /*job=*/9);
    works.push_back(work);
    wg.add();
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join) -> Co<void> {
      co_await gs.run(w);
      join.done();
    }(f.streams, work, wg));
  }
  f.s.run();
  for (const auto& w : works) {
    EXPECT_EQ(w->executed_on_gpu, 1) << "locality-aware scheduling must honour the cache";
  }
  // The cached transfers were skipped: only the outputs moved D2H on gpu1.
  EXPECT_EQ(f.dev1.bytes_h2d(), 0u);
}

TEST(GStreamManager, WorkStealingDrainsForeignQueue) {
  // One stream per GPU; flood with works all preferring GPU 0 via cache.
  core::GStreamConfig cfg;
  cfg.streams_per_gpu = 1;
  StreamFixture f(cfg);
  f.memory.insert(0, 9, 5, 20000 * sizeof(KV));
  sim::WaitGroup wg(f.s);
  for (int i = 0; i < 20; ++i) {
    auto work = f.make_work(20000, true, 5, 9);
    wg.add();
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join) -> Co<void> {
      co_await gs.run(w);
      join.done();
    }(f.streams, work, wg));
  }
  f.s.run();
  EXPECT_GT(f.streams.steals(), 0u);
  EXPECT_GT(f.streams.executed_on(1), 0u);
}

TEST(GStreamManager, IdleStreamsAreFreedAndRevived) {
  core::GStreamConfig cfg;
  cfg.idle_timeout = sim::millis(1);
  StreamFixture f(cfg);
  auto first = f.make_work(100);
  auto second = f.make_work(100);
  f.s.spawn([](Simulation& s, core::GStreamManager& gs, GWorkPtr a, GWorkPtr b) -> Co<void> {
    co_await gs.run(a);
    co_await s.delay(sim::millis(50));  // all streams time out and free
    co_await gs.run(b);                 // must revive a stream
  }(f.s, f.streams, first, second));
  f.s.run();
  EXPECT_TRUE(second->done->fired());
  EXPECT_GT(f.streams.freed_streams(), 0u);
}

TEST(GStreamManager, MultiStreamPipelineOverlapsCopiesAndKernels) {
  core::GStreamConfig cfg;
  cfg.streams_per_gpu = 4;
  StreamFixture f(cfg);
  sim::WaitGroup wg(f.s);
  for (int i = 0; i < 12; ++i) {
    auto work = f.make_work(400000);  // ~6.4 MB in, ~6.4 ms H2D at 1 GB/s
    wg.add();
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join) -> Co<void> {
      co_await gs.run(w);
      join.done();
    }(f.streams, work, wg));
  }
  f.s.run();
  EXPECT_TRUE(f.tracer.lanes_overlap("gpu0/h2d", "gpu0/kernel"));
}

TEST(GStreamManager, SingleStreamSerializesNoOverlap) {
  core::GStreamConfig cfg;
  cfg.streams_per_gpu = 1;
  StreamFixture f(cfg);
  sim::WaitGroup wg(f.s);
  for (int i = 0; i < 6; ++i) {
    auto work = f.make_work(400000);
    wg.add();
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join) -> Co<void> {
      co_await gs.run(w);
      join.done();
    }(f.streams, work, wg));
  }
  f.s.run();
  EXPECT_FALSE(f.tracer.lanes_overlap("gpu0/h2d", "gpu0/kernel"));
  EXPECT_FALSE(f.tracer.lanes_overlap("gpu1/h2d", "gpu1/kernel"));
}

TEST(GStreamManager, PipeliningIsFasterThanSerial) {
  auto run_with_streams = [](int streams) {
    core::GStreamConfig cfg;
    cfg.streams_per_gpu = streams;
    StreamFixture f(cfg);
    sim::WaitGroup wg(f.s);
    for (int i = 0; i < 16; ++i) {
      auto work = f.make_work(400000);
      wg.add();
      f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join) -> Co<void> {
        co_await gs.run(w);
        join.done();
      }(f.streams, work, wg));
    }
    return f.s.run();
  };
  auto serial = run_with_streams(1);
  auto pipelined = run_with_streams(4);
  EXPECT_LT(pipelined, serial);
}

TEST(GStreamManager, RoundRobinPolicyAlternates) {
  core::GStreamConfig cfg;
  cfg.policy = core::SchedulingPolicy::RoundRobin;
  StreamFixture f(cfg);
  std::vector<GWorkPtr> works;
  sim::WaitGroup wg(f.s);
  for (int i = 0; i < 8; ++i) {
    auto work = f.make_work(100);
    works.push_back(work);
    wg.add();
    f.s.spawn([](Simulation& s, core::GStreamManager& gs, GWorkPtr w, int idx,
                 sim::WaitGroup& join) -> Co<void> {
      co_await s.delay(sim::millis(idx));  // submit one at a time
      co_await gs.run(w);
      join.done();
    }(f.s, f.streams, work, i, wg));
  }
  f.s.run();
  for (std::size_t i = 0; i < works.size(); ++i) {
    EXPECT_EQ(works[i]->executed_on_gpu, static_cast<int>(i % 2));
  }
}

TEST(GStreamManager, MappedMemoryGWorkSkipsCopyEngines) {
  StreamFixture f;
  auto work = f.make_work(1000);
  work->use_mapped_memory = true;
  work->inputs[0].cache = false;
  f.s.spawn([](core::GStreamManager& gs, GWorkPtr w) -> Co<void> {
    co_await gs.run(w);
  }(f.streams, work));
  f.s.run();
  EXPECT_TRUE(work->done->fired());
  // Results are correct...
  const KV* out = reinterpret_cast<const KV*>(work->outputs[0].host->data());
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(out[i].value, static_cast<std::int64_t>(2 * i));
  }
  // ...and no DMA engine moved a byte (the kernel streamed host memory).
  EXPECT_EQ(f.dev0.bytes_h2d() + f.dev1.bytes_h2d(), 0u);
  EXPECT_EQ(f.dev0.bytes_d2h() + f.dev1.bytes_d2h(), 0u);
}

TEST(GStreamManager, MappedMemoryCostsPcieBandwidth) {
  // For a memory-bound kernel the mapped path is bounded by PCIe, the copy
  // path by device DRAM after the transfer: run both and compare the
  // kernel-only durations through virtual time.
  auto run_once = [](bool mapped) {
    StreamFixture f;
    auto work = f.make_work(200000);  // 3.2 MB
    work->use_mapped_memory = mapped;
    work->inputs[0].cache = false;
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w) -> Co<void> {
      co_await gs.run(w);
    }(f.streams, work));
    f.s.run();
    return work->finished_at - work->submitted_at;
  };
  auto mapped = run_once(true);
  auto copied = run_once(false);
  // Copy path: H2D 3.2MB at 1 GB/s + kernel at 100 GB/s + D2H + overheads.
  // Mapped path: one kernel at PCIe speed (1 GB/s) on 8 B/item = 1.6 ms.
  EXPECT_GT(mapped, sim::millis(1));
  // Both complete; the copy path pays transfers both ways so it is slower
  // for this single one-shot work.
  EXPECT_LT(mapped, copied);
}

TEST(GStreamManager, TenantPriorityJumpsTheQueue) {
  // One stream per GPU and heavy works so the pool backlogs; a high-priority
  // tenant submitted *after* the background works must be popped first.
  core::GStreamConfig cfg;
  cfg.streams_per_gpu = 1;
  StreamFixture f(cfg);
  f.streams.set_tenant_priority("vip", 10);
  sim::WaitGroup wg(f.s);
  std::vector<std::pair<std::string, sim::Time>> done;  // (tenant, finish time)
  auto submit = [&](const std::string& tenant) {
    auto work = f.make_work(400000);  // ~6.4 ms H2D each: queues build up
    work->tenant = tenant;
    wg.add();
    f.s.spawn([](core::GStreamManager& gs, GWorkPtr w, sim::WaitGroup& join, Simulation& s,
                 std::vector<std::pair<std::string, sim::Time>>& log,
                 std::string t) -> Co<void> {
      co_await gs.run(w);
      log.emplace_back(std::move(t), s.now());
      join.done();
    }(f.streams, work, wg, f.s, done, tenant));
  };
  for (int i = 0; i < 8; ++i) submit("bg");
  for (int i = 0; i < 4; ++i) submit("vip");
  f.s.run();
  ASSERT_EQ(done.size(), 12u);
  sim::Time vip_last = 0, bg_last = 0;
  for (const auto& [tenant, at] : done) {
    if (tenant == "vip") {
      vip_last = std::max(vip_last, at);
    } else {
      bg_last = std::max(bg_last, at);
    }
  }
  // Every queued vip work overtook the queued bg backlog.
  EXPECT_LT(vip_last, bg_last);
  EXPECT_GT(f.streams.priority_bypasses(), 0u);
}

// ---- Chunked transfer/compute pipeline --------------------------------------

namespace {

/// Opt a make_work() GWork into the chunked pipeline: core_double_kv is
/// element-wise and both buffers are arrays of KV records.
void make_chunkable(GWork& work) {
  work.chunkable = true;
  work.inputs[0].item_stride = sizeof(KV);
  work.outputs[0].item_stride = sizeof(KV);
}

/// Single-GPU rig with direct control over the device spec, JNI overhead
/// and stream config — the StreamFixture's second device and fixed wrapper
/// overheads get in the way of exact-makespan and memory-layout tests.
struct SingleGpuFixture {
  Simulation s;
  gpu::GpuDevice dev;
  gpu::CudaStub stub;
  gpu::CudaWrapper wrap;
  core::GMemoryManager memory;
  core::GStreamManager streams;
  mem::AddressSpace addresses;

  SingleGpuFixture(core::GStreamConfig cfg, gpu::DeviceSpec spec, sim::Duration jni)
      : dev(s, "gpu0", spec),
        stub(dev),
        wrap(stub, jni),
        memory({&dev}, 1 << 20, core::CachePolicy::Fifo),
        streams(s, {&wrap}, memory, cfg) {
    register_test_kernels();
  }
};

/// Run one GWork to completion and return its makespan.
sim::Duration run_work(Simulation& s, core::GStreamManager& streams, const GWorkPtr& work) {
  s.spawn([](core::GStreamManager& gs, GWorkPtr w) -> Co<void> {
    co_await gs.run(w);
  }(streams, work));
  s.run();
  EXPECT_TRUE(work->done->fired());
  return work->finished_at - work->submitted_at;
}

}  // namespace

TEST(ChunkedPipeline, OutputsMatchMonolithic) {
  constexpr std::size_t kN = 4096;
  core::GStreamConfig mono_cfg;
  mono_cfg.chunk_bytes = 0;
  StreamFixture mono(mono_cfg);
  auto mono_work = mono.make_work(kN);
  make_chunkable(*mono_work);  // eligible, but chunk_bytes = 0 disables it
  run_work(mono.s, mono.streams, mono_work);
  EXPECT_EQ(mono.streams.chunked_works(), 0u);
  EXPECT_EQ(mono_work->executed_chunks, 1u);

  core::GStreamConfig chunk_cfg;
  chunk_cfg.chunk_bytes = 16 << 10;  // 512 KV records in + out per chunk
  StreamFixture chunked(chunk_cfg);
  auto chunk_work = chunked.make_work(kN);
  make_chunkable(*chunk_work);
  run_work(chunked.s, chunked.streams, chunk_work);
  EXPECT_EQ(chunked.streams.chunked_works(), 1u);
  EXPECT_EQ(chunk_work->executed_chunks, 8u);
  EXPECT_EQ(chunked.streams.chunks_total(), 8u);
  EXPECT_EQ(chunked.streams.chunk_fallbacks(), 0u);

  // Bit-identical results: chunking changes the schedule, not the data.
  EXPECT_EQ(std::memcmp(mono_work->outputs[0].host->data(),
                        chunk_work->outputs[0].host->data(), kN * sizeof(KV)),
            0);
  // The ring was returned in full.
  EXPECT_EQ(chunked.memory.staging_bytes(0) + chunked.memory.staging_bytes(1), 0u);
}

TEST(ChunkedPipeline, BeatsMonolithicMakespan) {
  constexpr std::size_t kN = 4096;
  core::GStreamConfig mono_cfg;
  mono_cfg.chunk_bytes = 0;
  StreamFixture mono(mono_cfg);
  auto mono_work = mono.make_work(kN);
  make_chunkable(*mono_work);
  const sim::Duration serial = run_work(mono.s, mono.streams, mono_work);

  core::GStreamConfig chunk_cfg;
  chunk_cfg.chunk_bytes = 16 << 10;
  StreamFixture chunked(chunk_cfg);
  auto chunk_work = chunked.make_work(kN);
  make_chunkable(*chunk_work);
  const sim::Duration pipelined = run_work(chunked.s, chunked.streams, chunk_work);

  // Chunk i+1's H2D hides behind chunk i's kernel and chunk i-1's D2H, and
  // one ring reservation replaces two cudaMalloc/cudaFree pairs.
  EXPECT_LT(pipelined, serial);
  // The device observed genuine copy-compute overlap; the monolithic run,
  // a single serial H2D -> K -> D2H chain, observed none.
  const sim::Duration overlap =
      chunked.dev0.copy_compute_overlap() + chunked.dev1.copy_compute_overlap();
  EXPECT_GT(overlap, 0);
  EXPECT_EQ(mono.dev0.copy_compute_overlap() + mono.dev1.copy_compute_overlap(), 0);
}

TEST(ChunkedPipeline, MakespanMatchesClosedForm) {
  // With zero JNI/PCIe-latency/launch overheads and an evenly divisible
  // chunk count, every chunk's three stages take constant durations d_h,
  // d_k, d_d, and a depth-3 ring gives the textbook pipeline makespan:
  //   d_h + d_k + d_d + (C-1) * max(d_h, d_k, d_d)
  // plus the one-off ring reserve/release driver costs.
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kItemsPerChunk = 512;
  constexpr std::size_t kChunks = kN / kItemsPerChunk;
  core::GStreamConfig cfg;
  cfg.chunk_bytes = kItemsPerChunk * 2 * sizeof(KV);  // in + out per item
  cfg.staging_slots = 3;
  SingleGpuFixture f(cfg, StreamFixture::test_spec(), /*jni=*/0);

  auto in = std::make_shared<mem::HBuffer>(kN * sizeof(KV), f.addresses.allocate(kN * sizeof(KV)));
  in->set_pinned(true);
  auto* vals = reinterpret_cast<KV*>(in->data());
  for (std::size_t i = 0; i < kN; ++i) vals[i] = KV{i, static_cast<std::int64_t>(i)};
  auto out =
      std::make_shared<mem::HBuffer>(kN * sizeof(KV), f.addresses.allocate(kN * sizeof(KV)));
  out->set_pinned(true);
  auto work = std::make_shared<GWork>();
  work->execute_name = "core_double_kv";
  work->size = kN;
  GBuffer ib;
  ib.host = in;
  ib.bytes = kN * sizeof(KV);
  ib.item_stride = sizeof(KV);
  work->inputs.push_back(ib);
  GBuffer ob;
  ob.host = out;
  ob.bytes = kN * sizeof(KV);
  ob.item_stride = sizeof(KV);
  work->outputs.push_back(ob);
  work->chunkable = true;

  const sim::Duration makespan = run_work(f.s, f.streams, work);
  ASSERT_EQ(work->executed_chunks, kChunks);

  const sim::Duration d_h = f.dev.dma_time(kItemsPerChunk * sizeof(KV), /*pinned=*/true);
  const sim::Duration d_d = d_h;  // symmetric transfer
  const sim::Duration d_k =
      gpu::kernel_duration(gpu::KernelRegistry::global().lookup("core_double_kv"),
                           f.dev.spec(), kItemsPerChunk, work->layout);
  const sim::Duration bottleneck = std::max({d_h, d_k, d_d});
  const sim::Duration pipeline =
      d_h + d_k + d_d + static_cast<sim::Duration>(kChunks - 1) * bottleneck;
  const auto& oh = f.stub.overheads();
  EXPECT_EQ(makespan, oh.malloc_cost + pipeline + oh.free_cost);

  const KV* result = reinterpret_cast<const KV*>(out->data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i].value, static_cast<std::int64_t>(2 * i));
  }
}

TEST(ChunkedPipeline, IndivisibleAuxBufferTransfersWhole) {
  // core_add_aux reads aux[0] from every chunk: the aux input is declared
  // indivisible (item_stride 0), transferred whole before the pipeline
  // starts, and bound in full to every chunk kernel.
  constexpr std::size_t kN = 2048;
  core::GStreamConfig cfg;
  cfg.chunk_bytes = 16 << 10;
  StreamFixture f(cfg);
  auto work = f.make_work(kN);
  work->execute_name = "core_add_aux";
  make_chunkable(*work);
  auto aux = std::make_shared<mem::HBuffer>(sizeof(KV), f.addresses.allocate(sizeof(KV)));
  aux->set_pinned(true);
  reinterpret_cast<KV*>(aux->data())[0] = KV{0, 1000};
  GBuffer ab;
  ab.host = aux;
  ab.bytes = sizeof(KV);
  work->inputs.push_back(ab);  // buffers bind [in, aux, out]

  run_work(f.s, f.streams, work);
  EXPECT_EQ(f.streams.chunked_works(), 1u);
  EXPECT_GT(work->executed_chunks, 1u);
  const KV* result = reinterpret_cast<const KV*>(work->outputs[0].host->data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i].value, static_cast<std::int64_t>(i) + 1000);
  }
}

TEST(ChunkedPipeline, StagingFailureFallsBackWithoutDeadlock) {
  // Device layout: a pinned cache entry the ring must NOT evict, and two
  // non-adjacent 64 KB holes. The depth-3 ring needs 96 KB contiguous and
  // cannot get it; the monolithic fallback fits its input and output into
  // the two holes and completes. No blocking, no eviction of pinned data.
  constexpr std::size_t kN = 4096;  // 64 KB in + 64 KB out
  core::GStreamConfig cfg;
  cfg.chunk_bytes = 32 << 10;  // 1024 items/chunk -> 4 chunks, 32 KB slots
  cfg.staging_slots = 3;
  gpu::DeviceSpec spec = StreamFixture::test_spec();
  spec.device_memory = 512 << 10;
  SingleGpuFixture f(cfg, spec, sim::nanos(200));

  auto a = f.dev.memory().allocate(128 << 10);
  ASSERT_TRUE(f.memory.insert(0, /*job=*/1, /*key=*/77, 64 << 10).has_value());  // stays pinned
  auto b = f.dev.memory().allocate(64 << 10);
  auto c = f.dev.memory().allocate(128 << 10);
  auto d = f.dev.memory().allocate(64 << 10);
  auto e = f.dev.memory().allocate(64 << 10);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  ASSERT_NE(c, 0u);
  ASSERT_NE(d, 0u);
  ASSERT_NE(e, 0u);
  f.dev.memory().free(b);
  f.dev.memory().free(d);

  auto in = std::make_shared<mem::HBuffer>(kN * sizeof(KV), f.addresses.allocate(kN * sizeof(KV)));
  in->set_pinned(true);
  auto* vals = reinterpret_cast<KV*>(in->data());
  for (std::size_t i = 0; i < kN; ++i) vals[i] = KV{i, static_cast<std::int64_t>(i)};
  auto out =
      std::make_shared<mem::HBuffer>(kN * sizeof(KV), f.addresses.allocate(kN * sizeof(KV)));
  out->set_pinned(true);
  auto work = std::make_shared<GWork>();
  work->execute_name = "core_double_kv";
  work->size = kN;
  work->job_id = 1;
  GBuffer ib;
  ib.host = in;
  ib.bytes = kN * sizeof(KV);
  ib.item_stride = sizeof(KV);
  work->inputs.push_back(ib);
  GBuffer ob;
  ob.host = out;
  ob.bytes = kN * sizeof(KV);
  ob.item_stride = sizeof(KV);
  work->outputs.push_back(ob);
  work->chunkable = true;

  run_work(f.s, f.streams, work);

  EXPECT_EQ(f.streams.chunk_fallbacks(), 1u);
  EXPECT_EQ(f.streams.chunked_works(), 0u);
  EXPECT_EQ(work->executed_chunks, 1u);
  EXPECT_GE(f.memory.staging_failures(), 1u);
  EXPECT_EQ(f.memory.staging_bytes(0), 0u);
  // The pinned cache entry survived the failed reservation attempt.
  EXPECT_TRUE(f.memory.lookup(0, 1, 77).has_value());
  const KV* result = reinterpret_cast<const KV*>(out->data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(result[i].value, static_cast<std::int64_t>(2 * i));
  }
}

// ---- GDST / GpuManager end-to-end -------------------------------------------

namespace {

df::EngineConfig engine_config(int workers) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = workers;
  cfg.dfs.replication = workers >= 2 ? 2 : 1;
  cfg.job_submit_overhead = sim::micros(10);
  cfg.job_schedule_overhead = sim::micros(10);
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  return cfg;
}

core::GpuManagerConfig gpu_config() {
  core::GpuManagerConfig cfg;
  cfg.devices = {StreamFixture::test_spec(), StreamFixture::test_spec()};
  return cfg;
}

df::DataSet<KV> iota(df::Engine& e, int partitions, std::uint64_t n) {
  return df::DataSet<KV>::from_generator(
      e, &kv_desc(), partitions, [n, partitions](int part, std::vector<KV>& out) {
        for (std::uint64_t i = part; i < n; i += static_cast<std::uint64_t>(partitions)) {
          out.push_back(KV{i, static_cast<std::int64_t>(i)});
        }
      });
}

}  // namespace

TEST(Gdst, GpuMapPartitionMatchesCpuResult) {
  register_test_kernels();
  df::Engine e(engine_config(2));
  core::GFlinkRuntime runtime(e, gpu_config());
  std::vector<KV> gpu_rows, cpu_rows;
  e.run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "t");
    co_await job.submit();
    core::GpuOpSpec spec;
    spec.kernel = "core_double_kv";
    auto src = iota(eng, 4, 1000);
    auto on_gpu = core::gpu_dataset_op<KV, KV>(src, &kv_desc(), "gpuDouble", spec);
    gpu_rows = co_await on_gpu.collect(job);
    auto on_cpu = src.map<KV>(&kv_desc(), "cpuDouble", df::OpCost{4.0, 32.0},
                              [](const KV& kv) { return KV{kv.key, 2 * kv.value}; });
    cpu_rows = co_await on_cpu.collect(job);
    job.finish();
  });
  ASSERT_EQ(gpu_rows.size(), cpu_rows.size());
  auto by_key = [](std::vector<KV>& v) {
    std::sort(v.begin(), v.end(), [](const KV& a, const KV& b) { return a.key < b.key; });
  };
  by_key(gpu_rows);
  by_key(cpu_rows);
  for (std::size_t i = 0; i < gpu_rows.size(); ++i) {
    EXPECT_EQ(gpu_rows[i].key, cpu_rows[i].key);
    EXPECT_EQ(gpu_rows[i].value, cpu_rows[i].value);
  }
}

TEST(Gdst, BlocksArePageSized) {
  register_test_kernels();
  auto ecfg = engine_config(1);
  ecfg.page_size = 1024;  // 64 KVs per block
  df::Engine e(ecfg);
  core::GFlinkRuntime runtime(e, gpu_config());
  e.run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "t");
    co_await job.submit();
    core::GpuOpSpec spec;
    spec.kernel = "core_double_kv";
    auto ds = core::gpu_dataset_op<KV, KV>(iota(eng, 1, 1000), &kv_desc(), "g", spec);
    auto n = co_await ds.count(job);
    EXPECT_EQ(n, 1000u);
    job.finish();
  });
  // 1000 records / 64 per block = 16 blocks = 16 kernels.
  EXPECT_EQ(runtime.total_kernels(), 16u);
}

TEST(Gdst, CacheEliminatesRepeatTransfers) {
  register_test_kernels();
  df::Engine e(engine_config(2));
  core::GFlinkRuntime runtime(e, gpu_config());
  std::uint64_t h2d_first = 0, h2d_second = 0;
  e.run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "t");
    co_await job.submit();
    core::GpuOpSpec spec;
    spec.kernel = "core_double_kv";
    spec.cache_input = true;
    auto src = co_await iota(eng, 4, 20000).materialize(job);
    for (int iter = 0; iter < 2; ++iter) {
      auto ds = core::gpu_dataset_op<KV, KV>(df::DataSet<KV>::from_handle(eng, src), &kv_desc(),
                                             "g", spec);
      (void)co_await ds.count(job);
      if (iter == 0) h2d_first = runtime.total_bytes_h2d();
    }
    h2d_second = runtime.total_bytes_h2d() - h2d_first;
    runtime.release_job(job.id());
    job.finish();
  });
  EXPECT_GT(h2d_first, 0u);
  // Second iteration: all input blocks cached, no H2D traffic at all.
  EXPECT_EQ(h2d_second, 0u);
  EXPECT_GT(runtime.total_cache_hits(), 0u);
}

TEST(Gdst, AuxBuffersReachTheKernel) {
  register_test_kernels();
  df::Engine e(engine_config(1));
  core::GFlinkRuntime runtime(e, gpu_config());
  std::vector<KV> rows;
  e.run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "t");
    co_await job.submit();
    core::GpuOpSpec spec;
    spec.kernel = "core_add_aux";
    spec.make_aux = [](df::TaskContext& ctx) {
      auto buf = ctx.worker_state().memory().allocate_unbudgeted(sizeof(KV));
      buf->set_pinned(true);
      KV aux{0, 1000};
      buf->write(0, &aux, sizeof(aux));
      std::vector<GBuffer> v(1);
      v[0].host = buf;
      v[0].bytes = sizeof(KV);
      return v;
    };
    auto ds = core::gpu_dataset_op<KV, KV>(iota(eng, 2, 100), &kv_desc(), "g", spec);
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 100u);
  for (const auto& kv : rows) {
    EXPECT_EQ(kv.value, static_cast<std::int64_t>(kv.key) + 1000);
  }
}

TEST(Gdst, BlockReducerEmitsOneRecordPerBlock) {
  register_test_kernels();
  auto ecfg = engine_config(1);
  ecfg.page_size = 1600;  // 100 KVs per block
  df::Engine e(ecfg);
  core::GFlinkRuntime runtime(e, gpu_config());
  std::vector<KV> rows;
  e.run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "t");
    co_await job.submit();
    core::GpuOpSpec spec;
    spec.kernel = "core_block_sum";
    spec.out_items = [](std::size_t) { return std::size_t{1}; };
    auto ds = core::gpu_dataset_op<KV, KV>(iota(eng, 1, 1000), &kv_desc(), "g", spec);
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 10u);  // 1000 records / 100 per block
  std::int64_t total = 0;
  for (const auto& kv : rows) total += kv.value;
  EXPECT_EQ(total, 999 * 1000 / 2);
}

TEST(Gdst, DeterministicEndToEnd) {
  register_test_kernels();
  auto run_once = [] {
    df::Engine e(engine_config(2));
    core::GFlinkRuntime runtime(e, gpu_config());
    sim::Time end = 0;
    e.run([&](df::Engine& eng) -> Co<void> {
      df::Job job(eng, "t");
      co_await job.submit();
      core::GpuOpSpec spec;
      spec.kernel = "core_double_kv";
      auto ds = core::gpu_dataset_op<KV, KV>(iota(eng, 4, 5000), &kv_desc(), "g", spec);
      (void)co_await ds.count(job);
      job.finish();
      end = eng.now();
    });
    return end;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Property sweep: the GPU path conserves record counts for any block size
// and partition count.
class GdstProperty : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(GdstProperty, CountConserved) {
  register_test_kernels();
  auto [page, partitions] = GetParam();
  auto ecfg = engine_config(2);
  ecfg.page_size = page;
  df::Engine e(ecfg);
  core::GFlinkRuntime runtime(e, gpu_config());
  std::uint64_t n = 0;
  e.run([&, partitions = partitions](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "t");
    co_await job.submit();
    core::GpuOpSpec spec;
    spec.kernel = "core_double_kv";
    auto ds = core::gpu_dataset_op<KV, KV>(iota(eng, partitions, 777), &kv_desc(), "g", spec);
    n = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(n, 777u);
}

INSTANTIATE_TEST_SUITE_P(Grid, GdstProperty,
                         ::testing::Combine(::testing::Values(64, 1024, 32768),
                                            ::testing::Values(1, 3, 8)));
