// KeyIndex: the flat key -> accumulator-slot index behind map-side combine.
//
// Both combine sites (ShuffleSession::partition and Engine::combine_by_key)
// fold every record into the first record seen with its key. This index
// records where that first record lives — (bucket, slot) — in one
// open-addressing table with linear probing, instead of one node-based
// hash map per bucket. Every 64-bit key is valid (WordCount pads with
// ~0ULL, and 0 is a real word id): a free entry is marked by its bucket,
// not its key. The table starts small and doubles at 50% load, so a
// 10-key KMeans batch stays tiny however many records it folds. It is
// never iterated, so its layout cannot leak into record order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/util.hpp"

namespace gflink::mem {

/// Where a key's accumulator record lives: record `slot` of bucket `bucket`.
struct KeySlot {
  std::uint32_t bucket = 0;
  std::uint32_t slot = 0;

  /// Narrowing constructor; both indices must fit (the all-ones bucket is
  /// the index's free marker).
  static KeySlot at(std::size_t bucket, std::size_t slot) {
    GFLINK_CHECK(bucket < 0xFFFFFFFFu && slot <= 0xFFFFFFFFu);
    return KeySlot{static_cast<std::uint32_t>(bucket), static_cast<std::uint32_t>(slot)};
  }
};

class KeyIndex {
 public:
  KeyIndex() : entries_(kInitialCapacity) {}

  /// The slot recorded for `key` and false; or, when `key` is new, record
  /// `make()` (a KeySlot) for it and return that and true. `make` runs only
  /// on a miss, so callers can defer work such as picking the bucket.
  template <typename Make>
  std::pair<KeySlot, bool> try_emplace(std::uint64_t key, Make&& make) {
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Entry& e = entries_[i];
      if (e.bucket == kFree) {
        if (2 * (size_ + 1) > entries_.size()) {
          grow();
          return try_emplace(key, std::forward<Make>(make));
        }
        const KeySlot slot = make();
        e = Entry{key, slot.bucket, slot.slot};
        ++size_;
        return {slot, true};
      }
      if (e.key == key) return {KeySlot{e.bucket, e.slot}, false};
    }
  }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};
  static constexpr std::size_t kInitialCapacity = 16;  // a power of two

  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t bucket = kFree;
    std::uint32_t slot = 0;
  };

  std::size_t mask() const { return entries_.size() - 1; }
  /// Fibonacci hashing: the high bits of key * 2^64/phi spread small and
  /// strided integer keys (word ids, page ids) evenly over the table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Entry> old(entries_.size() * 2);
    old.swap(entries_);
    --shift_;
    for (const Entry& e : old) {
      if (e.bucket == kFree) continue;
      std::size_t i = home(e.key);
      while (entries_[i].bucket != kFree) i = (i + 1) & mask();
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  int shift_ = 60;  // 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace gflink::mem
