// RecordBatch: a block of records in one of the three GStruct layouts.
//
// The dataflow engine charges virtual time record-at-a-time (Flink's
// iterator model), but on the host it runs each chained record operator
// once per batch, as a typed loop over aos_view<T>() that fills its output
// in place or in one bulk append; the GFlink layer ships whole batches to
// GPUs. Layout transforms
// (AoS <-> SoA <-> AoP) are explicit so the layout ablation bench can
// measure their cost and kernels can declare their preferred layout.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "mem/gstruct.hpp"
#include "sim/util.hpp"

namespace gflink::mem {

class RecordBatch {
 public:
  /// An empty AoS batch that can grow by append.
  explicit RecordBatch(const StructDesc* desc);

  /// A zero-filled batch with `count` records in the given layout.
  RecordBatch(const StructDesc* desc, std::size_t count, Layout layout);

  const StructDesc& desc() const { return *desc_; }
  Layout layout() const { return layout_; }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Total bytes of the batch payload (what a PCIe transfer would move).
  std::size_t byte_size() const;

  /// Append one record given its AoS-layout bytes (desc().stride() long).
  /// Only valid for AoS batches.
  void append_raw(const void* record_bytes);
  /// Append `count` consecutive AoS records in one copy.
  void append_raw(const void* record_bytes, std::size_t count);

  /// Set the record count of an AoS batch: added records are zero-filled,
  /// records past `count` are dropped. Writers that fill a batch in place
  /// grow it once, write through aos_view<T>() and trim the unused tail.
  void resize(std::size_t count);

  /// Pointer to record i (AoS only).
  const std::byte* record_ptr(std::size_t i) const;
  std::byte* record_ptr(std::size_t i);

  /// Typed element access in any layout. V must match the field's primitive
  /// size. `elem` indexes into array fields.
  template <typename V>
  V get(std::size_t field, std::size_t record, std::size_t elem = 0) const {
    V v;
    std::memcpy(&v, element_ptr(field, record, elem, sizeof(V)), sizeof(V));
    return v;
  }
  template <typename V>
  void set(std::size_t field, std::size_t record, V value, std::size_t elem = 0) {
    std::memcpy(element_ptr(field, record, elem, sizeof(V)), &value, sizeof(V));
  }

  /// Reinterpret an AoS batch as T records; requires the descriptor to
  /// match T's host layout (the zero-copy path).
  template <typename T>
  const T* aos_view() const {
    GFLINK_CHECK(layout_ == Layout::AoS);
    GFLINK_CHECK_MSG(desc_->matches_host_layout<T>(), "descriptor does not match host layout");
    return reinterpret_cast<const T*>(bytes_.data());
  }
  template <typename T>
  T* aos_view() {
    GFLINK_CHECK(layout_ == Layout::AoS);
    GFLINK_CHECK_MSG(desc_->matches_host_layout<T>(), "descriptor does not match host layout");
    return reinterpret_cast<T*>(bytes_.data());
  }

  /// Append a typed record through the zero-copy path.
  template <typename T>
  void append(const T& record) {
    GFLINK_CHECK_MSG(desc_->matches_host_layout<T>(), "descriptor does not match host layout");
    append_raw(&record);
  }
  /// Append a span of typed records: one layout check and one copy for the
  /// whole span.
  template <typename T>
  void append_all(std::span<const T> records) {
    GFLINK_CHECK_MSG(desc_->matches_host_layout<T>(), "descriptor does not match host layout");
    append_raw(records.data(), records.size());
  }

  /// Convert to another layout (returns a new batch; self if same layout).
  RecordBatch to_layout(Layout target) const;

  /// Raw backing bytes. AoS/SoA: one contiguous buffer. For AoP use
  /// field_bytes().
  const std::vector<std::byte>& bytes() const { return bytes_; }
  std::vector<std::byte>& bytes() { return bytes_; }

  /// AoP per-field arrays.
  const std::vector<std::vector<std::byte>>& field_bytes() const { return field_bytes_; }

  /// Start offset of field f's column within bytes() (SoA only).
  std::size_t column_offset(std::size_t field) const;

 private:
  const std::byte* element_ptr(std::size_t field, std::size_t record, std::size_t elem,
                               std::size_t value_size) const;
  std::byte* element_ptr(std::size_t field, std::size_t record, std::size_t elem,
                         std::size_t value_size) {
    return const_cast<std::byte*>(
        static_cast<const RecordBatch*>(this)->element_ptr(field, record, elem, value_size));
  }

  const StructDesc* desc_;
  Layout layout_;
  std::size_t count_ = 0;
  std::vector<std::byte> bytes_;                   // AoS or SoA storage
  std::vector<std::size_t> column_offsets_;        // SoA only
  std::vector<std::vector<std::byte>> field_bytes_;  // AoP only
};

}  // namespace gflink::mem
