#ifndef WVM_RELATIONAL_FLAT_COUNTS_MAP_H_
#define WVM_RELATIONAL_FLAT_COUNTS_MAP_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "relational/tuple.h"

namespace wvm {

/// Open-addressing hash map from Tuple to int64_t multiplicity — the tuple
/// storage behind Relation. Compared to std::unordered_map it stores entries
/// inline in a flat array (no per-entry node allocation, cache-friendly
/// probes) and leans on Tuple's memoized hash so a re-inserted or copied
/// tuple never re-walks its values.
///
/// Layout: two parallel arrays of power-of-two capacity — `hashes_` (0 marks
/// an empty slot; real hashes are remapped off 0) and `slots_` holding the
/// (tuple, count) pairs. A slot index is the high bits of hash times the
/// 64-bit golden ratio (Fibonacci hashing): tuple hashes of sequential
/// integer keys are strongly correlated, and a plain power-of-two mask would
/// turn that correlation into long linear-probe clusters. Collisions resolve
/// by linear probing; erasure uses backward-shift deletion, so there are no
/// tombstones and probe chains stay short. Max load factor 3/4.
///
/// References into the map are stable until the next mutation (the join
/// kernels index build-side tuples by pointer while the build relation is
/// held const). Iteration is in slot order: unspecified, as with
/// unordered_map, but a function of the map's insert and erase history that
/// some callers depend on (the workload generator picks delete targets by
/// position in it), so copies keep it exactly (see the copy constructor).
class FlatCountsMap {
 public:
  using value_type = std::pair<Tuple, int64_t>;

  FlatCountsMap() = default;

  /// A copy is sized for the source's live entry count (plus
  /// `reserve_hint` expected additional inserts) and laid out as if the
  /// source's entries were re-placed into it in slot order. This is the
  /// Relation copy-on-write clone path: sizing from the source map means a
  /// clone of a once-large, now-sparse map shrinks, and a clone about to
  /// absorb an Add of known size never rehashes mid-copy.
  ///
  /// When that size is the source's capacity — the steady state of a
  /// relation shared with a checkpoint — the clone is an array copy:
  /// linear probing re-places every entry where it already is, except the
  /// run of occupied slots that wraps past the last slot, which is
  /// re-placed as slot order would (see PlaceWrappedRunInSlotOrder). Either
  /// way the copy's layout, and so its iteration order, is that of the
  /// re-placing copy.
  FlatCountsMap(const FlatCountsMap& other) : FlatCountsMap(other, 0) {}
  FlatCountsMap(const FlatCountsMap& other, size_t reserve_hint) {
    const size_t capacity = CapacityFor(other.size_ + reserve_hint);
    if (capacity == other.hashes_.size()) {
      hashes_ = other.hashes_;
      slots_ = other.slots_;
      size_ = other.size_;
      shift_ = other.shift_;
      PlaceWrappedRunInSlotOrder();
      return;
    }
    Rehash(capacity);
    for (const auto& [t, c] : other) {
      EmplaceUnique(t, c);
    }
  }
  FlatCountsMap& operator=(const FlatCountsMap& other) {
    if (this != &other) {
      FlatCountsMap copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  FlatCountsMap(FlatCountsMap&&) noexcept = default;
  FlatCountsMap& operator=(FlatCountsMap&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot-array capacity (for sizing diagnostics and tests).
  size_t capacity() const { return hashes_.size(); }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatCountsMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;

    reference operator*() const { return map_->slots_[index_]; }
    pointer operator->() const { return &map_->slots_[index_]; }

    const_iterator& operator++() {
      ++index_;
      SkipEmpty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++(*this);
      return prev;
    }

    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }
    bool operator!=(const const_iterator& other) const {
      return index_ != other.index_;
    }

   private:
    friend class FlatCountsMap;
    const_iterator(const FlatCountsMap* map, size_t index)
        : map_(map), index_(index) {
      SkipEmpty();
    }

    void SkipEmpty() {
      while (index_ < map_->hashes_.size() && map_->hashes_[index_] == 0) {
        ++index_;
      }
    }

    const FlatCountsMap* map_ = nullptr;
    size_t index_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, hashes_.size()); }

  const_iterator find(const Tuple& t) const {
    if (size_ == 0) {
      return end();
    }
    const size_t h = NormHash(t.Hash());
    const size_t mask = hashes_.size() - 1;
    for (size_t i = SlotOf(h); hashes_[i] != 0; i = (i + 1) & mask) {
      if (hashes_[i] == h && slots_[i].first == t) {
        return const_iterator(this, i);
      }
    }
    return end();
  }

  /// Adds `delta` to `t`'s multiplicity, inserting the tuple if absent and
  /// removing the entry if the multiplicity reaches zero.
  void AddCount(const Tuple& t, int64_t delta) {
    const size_t i = Locate(t);
    if (hashes_[i] != 0) {
      Settle(i, delta);
    } else {
      Place(i, Tuple(t), delta);
    }
  }
  void AddCount(Tuple&& t, int64_t delta) {
    const size_t i = Locate(t);
    if (hashes_[i] != 0) {
      Settle(i, delta);
    } else {
      Place(i, std::move(t), delta);
    }
  }

  /// Inserts a tuple known not to be present (e.g. while copying from
  /// another map); skips the equality probe's accumulation logic.
  void EmplaceUnique(Tuple t, int64_t count) {
    const size_t i = Locate(t);
    Place(i, std::move(t), count);
  }

  /// Pre-sizes for about `n` entries.
  void reserve(size_t n) {
    const size_t cap = CapacityFor(n);
    if (cap > hashes_.size()) {
      Rehash(cap);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kGolden = 0x9e3779b97f4a7c15ULL;

  // 0 is the empty-slot sentinel; a true hash of 0 maps to 1 (a vanishingly
  // rare extra collision, never a correctness issue).
  static size_t NormHash(size_t h) { return h == 0 ? size_t{1} : h; }

  // Smallest power-of-two capacity keeping n entries at <= 3/4 load.
  static size_t CapacityFor(size_t n) {
    size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) {
      cap <<= 1;
    }
    return cap;
  }

  // Fibonacci slot mapping: multiply spreads correlated hashes, the top
  // log2(capacity) bits pick the slot.
  size_t SlotOf(size_t h) const { return (h * kGolden) >> shift_; }

  // Index of `t`'s slot: its entry if present, else the empty slot where it
  // belongs. Grows first so a following insert keeps the load bound.
  size_t Locate(const Tuple& t) {
    if ((size_ + 1) * 4 > hashes_.size() * 3) {
      // Quadruple while small so a from-scratch fill (the common pattern:
      // a fresh relation absorbing a few thousand inserts) pays half the
      // rehash passes; double past 4K slots to bound over-allocation.
      Rehash(hashes_.empty()
                 ? kMinCapacity
                 : hashes_.size() * (hashes_.size() < 4096 ? 4 : 2));
    }
    const size_t h = NormHash(t.Hash());
    const size_t mask = hashes_.size() - 1;
    size_t i = SlotOf(h);
    while (hashes_[i] != 0 && !(hashes_[i] == h && slots_[i].first == t)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Place(size_t i, Tuple t, int64_t count) {
    hashes_[i] = NormHash(t.Hash());
    slots_[i].first = std::move(t);
    slots_[i].second = count;
    ++size_;
  }

  void Settle(size_t i, int64_t delta) {
    slots_[i].second += delta;
    if (slots_[i].second == 0) {
      EraseAt(i);
    }
  }

  // Backward-shift deletion: walk forward from the hole, moving back any
  // entry whose probe path passes through it, until an empty slot ends the
  // cluster. Leaves no tombstones.
  void EraseAt(size_t i) {
    const size_t mask = hashes_.size() - 1;
    size_t j = i;
    for (;;) {
      hashes_[i] = 0;
      slots_[i].first = Tuple();
      for (;;) {
        j = (j + 1) & mask;
        if (hashes_[j] == 0) {
          --size_;
          return;
        }
        const size_t ideal = SlotOf(hashes_[j]);
        if (((j - ideal) & mask) >= ((j - i) & mask)) {
          hashes_[i] = hashes_[j];
          slots_[i] = std::move(slots_[j]);
          i = j;
          break;
        }
      }
    }
  }

  // A slot-order re-placement into an empty table of the same capacity
  // puts each entry of a cluster that does not wrap back in its own slot:
  // the entries before it in the cluster are already in theirs, so its
  // probe from its ideal slot stops where it is. The cluster that wraps
  // past the last slot is different. Its entries from slot 0 on are
  // re-placed first, while the slots at the end of the table are still
  // free, so they can land elsewhere. Clears that run and re-places it in
  // the same order: its part from slot 0 on, then its part up to the last
  // slot. Every probe stays inside the run's slots, so the other entries,
  // already in place, change nothing.
  void PlaceWrappedRunInSlotOrder() {
    const size_t cap = hashes_.size();
    if (hashes_[0] == 0 || hashes_[cap - 1] == 0) {
      return;
    }
    size_t head_end = 0;  // the run's part from slot 0 on: [0, head_end)
    while (hashes_[head_end] != 0) {
      ++head_end;
    }
    size_t tail_begin = cap - 1;  // its part up to the last slot
    while (hashes_[tail_begin - 1] != 0) {
      --tail_begin;
    }
    std::vector<value_type> run;
    run.reserve(head_end + (cap - tail_begin));
    auto take = [this, &run](size_t i) {
      run.push_back(std::move(slots_[i]));
      hashes_[i] = 0;
      --size_;
    };
    for (size_t i = 0; i < head_end; ++i) {
      take(i);
    }
    for (size_t i = tail_begin; i < cap; ++i) {
      take(i);
    }
    for (value_type& entry : run) {
      EmplaceUnique(std::move(entry.first), entry.second);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<size_t> old_hashes = std::move(hashes_);
    std::vector<value_type> old_slots = std::move(slots_);
    hashes_.assign(new_capacity, 0);
    slots_.assign(new_capacity, value_type());
    shift_ = 64;
    for (size_t cap = new_capacity; cap > 1; cap >>= 1) {
      --shift_;
    }
    const size_t mask = new_capacity - 1;
    for (size_t s = 0; s < old_hashes.size(); ++s) {
      if (old_hashes[s] == 0) {
        continue;
      }
      size_t i = SlotOf(old_hashes[s]);
      while (hashes_[i] != 0) {
        i = (i + 1) & mask;
      }
      hashes_[i] = old_hashes[s];
      slots_[i] = std::move(old_slots[s]);
    }
  }

  std::vector<size_t> hashes_;
  std::vector<value_type> slots_;
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity); 64 while empty
};

}  // namespace wvm

#endif  // WVM_RELATIONAL_FLAT_COUNTS_MAP_H_
