// KeyIndex: the flat key -> accumulator-slot index behind keyed combine.
//
// The one keyed combine loop (shuffle::combine_by_key — map-side combine
// and the reduce-side merge) folds every record into the first record seen
// with its key. This index numbers the keys in first-occurrence order —
// the n-th new key gets slot n, where its accumulator lives — in one
// open-addressing table with linear probing, instead of one node-based
// hash map per bucket. Every 64-bit key is valid (WordCount pads with
// ~0ULL, and 0 is a real word id): a free entry is marked by its slot, not
// its key. The table doubles at 50% load and is reused across combines:
// clear() frees only the entries that were filled and keeps the capacity,
// so a combine after the first grows the table only when it sees more keys
// than any combine before it. Its layout never leaks into record order:
// slots count first occurrences, whatever the table positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/util.hpp"

namespace gflink::mem {

class KeyIndex {
 public:
  KeyIndex() : entries_(kInitialCapacity) {}

  /// The slot of `key` and false; or, when `key` is new, give it the next
  /// slot (size() before the call) and return that and true.
  std::pair<std::uint32_t, bool> insert(std::uint64_t key) {
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Entry& e = entries_[i];
      if (e.slot == kFree) {
        if (2 * (used_.size() + 1) > entries_.size()) {
          grow();
          return insert(key);
        }
        e = Entry{key, static_cast<std::uint32_t>(used_.size())};
        used_.push_back(static_cast<std::uint32_t>(i));
        return {e.slot, true};
      }
      if (e.key == key) return {e.slot, false};
    }
  }

  /// Forget every key and keep the capacity. Costs one store per key
  /// inserted since the last clear, not one per entry of the table.
  void clear() {
    for (const std::uint32_t i : used_) entries_[i].slot = kFree;
    used_.clear();
  }

  std::size_t size() const { return used_.size(); }
  std::size_t capacity() const { return entries_.size(); }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};
  static constexpr std::size_t kInitialCapacity = 16;  // a power of two

  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t slot = kFree;
  };

  std::size_t mask() const { return entries_.size() - 1; }
  /// Fibonacci hashing: the high bits of key * 2^64/phi spread small and
  /// strided integer keys (word ids, page ids) evenly over the table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    // Positions and slots are 32-bit; at 50% load a 2^32-entry table holds
    // fewer keys than the free marker.
    GFLINK_CHECK(entries_.size() <= 0x80000000u);
    std::vector<Entry> old(entries_.size() * 2);
    old.swap(entries_);
    --shift_;
    for (std::uint32_t& pos : used_) {
      const Entry& e = old[pos];
      std::size_t i = home(e.key);
      while (entries_[i].slot != kFree) i = (i + 1) & mask();
      entries_[i] = e;
      pos = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Entry> entries_;
  int shift_ = 60;  // 64 - log2(capacity)
  /// Table position of each key, by slot: what clear() resets and grow()
  /// rehashes.
  std::vector<std::uint32_t> used_;
};

}  // namespace gflink::mem
