// Tests for GStruct descriptors, layout transforms, buffers and the paged
// memory manager.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "mem/buffer.hpp"
#include "mem/gstruct.hpp"
#include "mem/key_index.hpp"
#include "mem/memory_manager.hpp"
#include "mem/record_batch.hpp"
#include "sim/simulation.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
using mem::FieldType;
using mem::Layout;
using sim::Co;
using sim::Simulation;

namespace {

// Mirror of the paper's §3.5.1 example:
//   class Point extends GStruct_8 { Unsigned32 x; Double64 y; Float32 z; }
struct PaperPoint {
  std::uint32_t x;
  double y;
  float z;
};

mem::StructDesc paper_point_desc() {
  return mem::StructDescBuilder("Point", 8)
      .field("x", FieldType::U32, 1, offsetof(PaperPoint, x))
      .field("y", FieldType::F64, 1, offsetof(PaperPoint, y))
      .field("z", FieldType::F32, 1, offsetof(PaperPoint, z))
      .build();
}

}  // namespace

TEST(GStruct, FieldSizes) {
  EXPECT_EQ(mem::field_size(FieldType::U8), 1u);
  EXPECT_EQ(mem::field_size(FieldType::I16), 2u);
  EXPECT_EQ(mem::field_size(FieldType::F32), 4u);
  EXPECT_EQ(mem::field_size(FieldType::F64), 8u);
}

TEST(GStruct, PaperPointLayoutMatchesC) {
  auto d = paper_point_desc();
  // C layout: x @ 0, pad to 8, y @ 8, z @ 16, stride 24 (align 8).
  EXPECT_EQ(d.field(0).offset, 0u);
  EXPECT_EQ(d.field(1).offset, 8u);
  EXPECT_EQ(d.field(2).offset, 16u);
  EXPECT_EQ(d.stride(), 24u);
  EXPECT_EQ(d.stride(), sizeof(PaperPoint));
  EXPECT_TRUE(d.matches_host_layout<PaperPoint>());
}

TEST(GStruct, AlignmentCapPacksTighter) {
  // GStruct_4 caps the double at 4-byte alignment: x @ 0, y @ 4, z @ 12.
  auto d = mem::StructDescBuilder("PackedPoint", 4)
               .field("x", FieldType::U32)
               .field("y", FieldType::F64)
               .field("z", FieldType::F32)
               .build();
  EXPECT_EQ(d.field(1).offset, 4u);
  EXPECT_EQ(d.field(2).offset, 12u);
  EXPECT_EQ(d.stride(), 16u);
}

TEST(GStruct, ArrayFields) {
  auto d = mem::StructDescBuilder("Vec", 8).field("v", FieldType::F32, 16).build();
  EXPECT_EQ(d.stride(), 64u);
  EXPECT_EQ(d.payload_bytes(), 64u);
}

TEST(GStruct, FieldIndexLookup) {
  auto d = paper_point_desc();
  EXPECT_EQ(d.field_index("x"), 0u);
  EXPECT_EQ(d.field_index("z"), 2u);
}

TEST(GStruct, HostLayoutMismatchDetected) {
  // Same fields but no host offsets recorded: matches_host_layout is false
  // unless the offsets happen to line up, which they cannot with SIZE_MAX.
  auto d = mem::StructDescBuilder("P", 8)
               .field("x", FieldType::U32)
               .field("y", FieldType::F64)
               .field("z", FieldType::F32)
               .build();
  EXPECT_FALSE(d.matches_host_layout<PaperPoint>());
}

TEST(RecordBatch, AppendAndTypedAccess) {
  auto d = paper_point_desc();
  mem::RecordBatch b(&d);
  for (int i = 0; i < 10; ++i) {
    PaperPoint p{static_cast<std::uint32_t>(i), i * 1.5, i * 0.5f};
    b.append(p);
  }
  EXPECT_EQ(b.count(), 10u);
  EXPECT_EQ(b.byte_size(), 240u);
  EXPECT_EQ(b.get<std::uint32_t>(0, 7), 7u);
  EXPECT_DOUBLE_EQ(b.get<double>(1, 7), 10.5);
  EXPECT_FLOAT_EQ(b.get<float>(2, 7), 3.5f);
  const PaperPoint* view = b.aos_view<PaperPoint>();
  EXPECT_EQ(view[3].x, 3u);
}

TEST(RecordBatch, BulkAppendMatchesPerRecordAppend) {
  auto d = paper_point_desc();
  std::vector<PaperPoint> rows(25);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].x = static_cast<std::uint32_t>(i);
    rows[i].y = static_cast<double>(i) * 1.5;
    rows[i].z = static_cast<float>(i) * 0.5f;
  }
  mem::RecordBatch one(&d);
  for (const PaperPoint& p : rows) one.append(p);
  mem::RecordBatch bulk(&d);
  bulk.append_all(std::span<const PaperPoint>(rows.data(), 10));
  bulk.append_all(std::span<const PaperPoint>());
  bulk.append_all(std::span<const PaperPoint>(rows).subspan(10));
  EXPECT_EQ(bulk.count(), one.count());
  EXPECT_EQ(bulk.bytes(), one.bytes());
  EXPECT_FLOAT_EQ(bulk.get<float>(2, 24), 12.0f);
}

TEST(RecordBatchDeathTest, BulkAppendChecksHostLayout) {
  auto d = mem::StructDescBuilder("P", 8)
               .field("x", FieldType::U32)
               .field("y", FieldType::F64)
               .field("z", FieldType::F32)
               .build();
  mem::RecordBatch b(&d);
  const std::vector<PaperPoint> rows(3);
  EXPECT_DEATH(b.append_all(std::span<const PaperPoint>(rows)), "host layout");
}

TEST(RecordBatch, SetMutates) {
  auto d = paper_point_desc();
  mem::RecordBatch b(&d, 4, Layout::AoS);
  b.set<double>(1, 2, 99.0);
  EXPECT_DOUBLE_EQ(b.get<double>(1, 2), 99.0);
  EXPECT_DOUBLE_EQ(b.get<double>(1, 1), 0.0);
}

TEST(RecordBatch, LayoutRoundTripsPreserveValues) {
  auto d = mem::StructDescBuilder("Mix", 8)
               .field("id", FieldType::U64)
               .field("vals", FieldType::F32, 4)
               .field("tag", FieldType::U8)
               .build();
  mem::RecordBatch aos(&d, 6, Layout::AoS);
  for (std::size_t r = 0; r < 6; ++r) {
    aos.set<std::uint64_t>(0, r, 1000 + r);
    for (std::size_t e = 0; e < 4; ++e) {
      aos.set<float>(1, r, static_cast<float>(r * 10 + e), e);
    }
    aos.set<std::uint8_t>(2, r, static_cast<std::uint8_t>(r));
  }
  for (Layout target : {Layout::SoA, Layout::AoP}) {
    auto t = aos.to_layout(target);
    EXPECT_EQ(t.layout(), target);
    auto back = t.to_layout(Layout::AoS);
    ASSERT_EQ(back.count(), aos.count());
    EXPECT_EQ(back.bytes(), aos.bytes()) << mem::layout_name(target);
  }
}

TEST(RecordBatch, SoAColumnsAreContiguous) {
  auto d = mem::StructDescBuilder("XY", 8)
               .field("x", FieldType::F32)
               .field("y", FieldType::F32)
               .build();
  mem::RecordBatch aos(&d, 3, Layout::AoS);
  for (std::size_t r = 0; r < 3; ++r) {
    aos.set<float>(0, r, static_cast<float>(r));
    aos.set<float>(1, r, static_cast<float>(100 + r));
  }
  auto soa = aos.to_layout(Layout::SoA);
  // Column 0 = [0,1,2], column 1 = [100,101,102], back to back.
  const float* data = reinterpret_cast<const float*>(soa.bytes().data());
  EXPECT_EQ(soa.column_offset(0), 0u);
  EXPECT_EQ(soa.column_offset(1), 12u);
  EXPECT_FLOAT_EQ(data[0], 0.f);
  EXPECT_FLOAT_EQ(data[2], 2.f);
  EXPECT_FLOAT_EQ(data[3], 100.f);
  EXPECT_FLOAT_EQ(data[5], 102.f);
}

TEST(RecordBatch, AoPFieldsSeparateBuffers) {
  auto d = mem::StructDescBuilder("XY", 8)
               .field("x", FieldType::F32)
               .field("y", FieldType::F64)
               .build();
  mem::RecordBatch aos(&d, 5, Layout::AoS);
  auto aop = aos.to_layout(Layout::AoP);
  ASSERT_EQ(aop.field_bytes().size(), 2u);
  EXPECT_EQ(aop.field_bytes()[0].size(), 20u);
  EXPECT_EQ(aop.field_bytes()[1].size(), 40u);
  // AoP drops AoS padding: payload only.
  EXPECT_EQ(aop.byte_size(), 60u);
}

TEST(KeyIndex, ClearForgetsKeysKeepsCapacity) {
  mem::KeyIndex index;
  // Before any grow: 0 and ~0ULL are ordinary keys; slots count first
  // occurrences.
  EXPECT_EQ(index.insert(0), std::make_pair(0u, true));
  EXPECT_EQ(index.insert(~0ULL), std::make_pair(1u, true));
  EXPECT_EQ(index.insert(0), std::make_pair(0u, false));
  const std::size_t initial = index.capacity();
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), initial);
  EXPECT_EQ(index.insert(~0ULL), std::make_pair(0u, true));  // forgotten: numbered afresh
  EXPECT_EQ(index.insert(0), std::make_pair(1u, true));

  // After grows: strided keys collide modulo every power-of-two size.
  index.clear();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(index.insert(std::uint64_t{i} << 32), std::make_pair(i, true));
  }
  const std::size_t grown = index.capacity();
  EXPECT_GE(grown, 2000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(index.insert(std::uint64_t{i} << 32), std::make_pair(i, false));
  }
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), grown);
  for (std::uint32_t i = 0; i < 1000; ++i) {  // in reverse: every slot moves
    EXPECT_EQ(index.insert(std::uint64_t{999 - i} << 32), std::make_pair(i, true));
  }
  EXPECT_EQ(index.capacity(), grown);  // refilling to the same size does not grow

  // A clear after more grows still forgets every key, wherever grow moved it.
  for (std::uint64_t i = 1000; i < 5000; ++i) index.insert(i << 32);
  EXPECT_GT(index.capacity(), grown);
  index.clear();
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(index.insert(std::uint64_t{i} << 32), std::make_pair(i, true));
  }
  EXPECT_EQ(index.size(), 5000u);
}

TEST(HBuffer, ReadWriteAndFlags) {
  mem::AddressSpace as;
  mem::HBuffer b(128, as.allocate(128));
  EXPECT_TRUE(b.off_heap());
  EXPECT_FALSE(b.pinned());
  b.set_pinned(true);
  EXPECT_TRUE(b.pinned());
  std::uint64_t v = 0xdeadbeef;
  b.write(16, &v, sizeof(v));
  std::uint64_t r = 0;
  b.read(16, &r, sizeof(r));
  EXPECT_EQ(r, v);
}

TEST(AddressSpace, UniquePageAlignedAddresses) {
  mem::AddressSpace as;
  auto a = as.allocate(100);
  auto b = as.allocate(5000);
  auto c = as.allocate(1);
  EXPECT_EQ(a % 4096, 0u);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(c, b);
  EXPECT_GE(c - b, 4096u * 2);  // 5000 bytes spans two pages
}

TEST(MemoryManager, PagesForRoundsUp) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 16);
  EXPECT_EQ(mm.pages_for(1), 1u);
  EXPECT_EQ(mm.pages_for(1024), 1u);
  EXPECT_EQ(mm.pages_for(1025), 2u);
}

TEST(MemoryManager, BudgetBackpressure) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 4);
  std::vector<sim::Time> alloc_times;
  s.spawn([](Simulation& sm, mem::MemoryManager& m, std::vector<sim::Time>& at) -> Co<void> {
    auto b1 = co_await m.allocate(4 * 1024);  // takes the whole budget
    at.push_back(sm.now());
    co_await sm.delay(100);
    b1.reset();  // release pages at t=100
    co_await sm.delay(1000);
  }(s, mm, alloc_times));
  s.spawn([](Simulation& sm, mem::MemoryManager& m, std::vector<sim::Time>& at) -> Co<void> {
    co_await sm.delay(1);
    auto b2 = co_await m.allocate(1024);  // must wait for the release
    at.push_back(sm.now());
  }(s, mm, alloc_times));
  s.run();
  ASSERT_EQ(alloc_times.size(), 2u);
  EXPECT_EQ(alloc_times[0], 0);
  EXPECT_EQ(alloc_times[1], 100);
  EXPECT_EQ(mm.pages_available(), 4u);
}

TEST(MemoryManager, TryAllocateRespectsBudget) {
  Simulation s;
  mem::MemoryManager mm(s, 1024, 2);
  auto a = mm.try_allocate(2048);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(mm.try_allocate(1), nullptr);
  a.reset();
  EXPECT_NE(mm.try_allocate(1), nullptr);
}

// Property sweep: every (alignment cap, field mix) produces offsets that
// are within stride, properly aligned, and non-overlapping.
class GStructLayoutProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GStructLayoutProperty, OffsetsAlignedAndDisjoint) {
  const std::size_t cap = GetParam();
  auto d = mem::StructDescBuilder("P", cap)
               .field("a", FieldType::U8)
               .field("b", FieldType::F64)
               .field("c", FieldType::U16)
               .field("d", FieldType::F32, 3)
               .field("e", FieldType::U8)
               .field("f", FieldType::I64, 2)
               .build();
  std::size_t prev_end = 0;
  for (const auto& f : d.fields()) {
    std::size_t align = std::min(mem::field_size(f.type), cap);
    EXPECT_EQ(f.offset % align, 0u) << f.name;
    EXPECT_GE(f.offset, prev_end) << f.name;
    prev_end = f.offset + f.byte_size();
  }
  EXPECT_LE(prev_end, d.stride());
  EXPECT_EQ(d.stride() % std::min<std::size_t>(8, cap), 0u);
}

INSTANTIATE_TEST_SUITE_P(AlignmentCaps, GStructLayoutProperty,
                         ::testing::Values(1, 2, 4, 8, 16));
