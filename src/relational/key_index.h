#ifndef WVM_RELATIONAL_KEY_INDEX_H_
#define WVM_RELATIONAL_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "relational/flat_counts_map.h"
#include "relational/tuple.h"

namespace wvm {

/// A hash index over a relation's tuple storage, keyed on a fixed column
/// list — the one hash-join index of the data plane. Compiled delta plans
/// probe catalog relations through indexes the Catalog caches per
/// (relation, key columns), built once and reused until the relation is
/// next mutated; transient joins (NaturalJoin, the in-memory operands of
/// the physical evaluator, SelfMaintainer's initial semijoins) build one
/// over their input and drop it.
///
/// The index pins the underlying FlatCountsMap through a shared_ptr, so its
/// slot pointers stay valid even if the owning Relation is mutated after the
/// index was built: mutation under sharing clones the map, leaving the
/// indexed snapshot intact (the cache drops the stale index at that point).
/// Probes take the pre-folded key hash plus a value accessor, so columnar
/// executors probe straight from column vectors without materializing a key
/// tuple.
class RelationKeyIndex {
 public:
  /// Builds the index over `map` (null means the empty relation) keyed on
  /// `key_cols` (column indices within the relation's schema, possibly
  /// empty for degenerate cross-product probes).
  RelationKeyIndex(std::shared_ptr<const FlatCountsMap> map,
                   std::vector<size_t> key_cols)
      : map_(std::move(map)), key_cols_(std::move(key_cols)) {
    const size_t n = map_ ? map_->size() : 0;
    if (n == 0) {
      return;
    }
    entries_.reserve(n);
    size_t cap = kMinBuckets;
    while (n > cap) {
      cap <<= 1;
    }
    buckets_.assign(cap, kNil);
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) {
      --shift_;
    }
    for (const auto& slot : *map_) {
      size_t h = kTupleHashSeed;
      for (size_t c : key_cols_) {
        h = TupleHashFold(h, slot.first.value(c).Hash());
      }
      const size_t b = BucketOf(h);
      entries_.push_back(Entry{h, &slot, buckets_[b]});
      buckets_[b] = static_cast<uint32_t>(entries_.size() - 1);
    }
  }

  const std::vector<size_t>& key_cols() const { return key_cols_; }
  size_t num_rows() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Average rows per distinct bucketed hash — a cheap per-key fan-out
  /// estimate used only for output pre-sizing.
  size_t EstimatedRowsPerKey() const {
    if (entries_.empty()) {
      return 1;
    }
    size_t used = 0;
    for (uint32_t b : buckets_) {
      used += (b != kNil);
    }
    return used == 0 ? 1 : (entries_.size() + used - 1) / used;
  }

  /// Invokes fn(row, count) for every indexed row whose key columns equal
  /// the probe key. `key_hash` must be the TupleHashFold of the probe
  /// values in key-column order (see ProbeHash); `value_at(i)` returns the
  /// probe value aligned with key_cols()[i].
  template <typename ValueAt, typename Fn>
  void ForEachMatch(size_t key_hash, const ValueAt& value_at,
                    const Fn& fn) const {
    if (entries_.empty()) {
      return;
    }
    for (uint32_t e = buckets_[BucketOf(key_hash)]; e != kNil;
         e = entries_[e].next) {
      const Entry& ent = entries_[e];
      if (ent.hash != key_hash) {
        continue;
      }
      const Tuple& row = ent.slot->first;
      bool match = true;
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        if (!(row.value(key_cols_[i]) == value_at(i))) {
          match = false;
          break;
        }
      }
      if (match) {
        fn(row, ent.slot->second);
      }
    }
  }

  /// The fold ForEachMatch expects: TupleHashFold over the probe values in
  /// key-column order (identical to the fold used at build time).
  template <typename ValueAt>
  static size_t ProbeHash(size_t num_keys, const ValueAt& value_at) {
    size_t h = kTupleHashSeed;
    for (size_t i = 0; i < num_keys; ++i) {
      h = TupleHashFold(h, value_at(i).Hash());
    }
    return h;
  }

 private:
  struct Entry {
    size_t hash;
    const FlatCountsMap::value_type* slot;
    uint32_t next;
  };

  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr size_t kMinBuckets = 16;

  // Fibonacci bucket mapping, as in FlatCountsMap: key hashes of
  // correlated values are themselves correlated, and the multiply spreads
  // them before the power-of-two truncation.
  size_t BucketOf(size_t h) const {
    return (h * size_t{0x9e3779b97f4a7c15ULL}) >> shift_;
  }

  std::shared_ptr<const FlatCountsMap> map_;  // pins the indexed snapshot
  std::vector<size_t> key_cols_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> buckets_;
  int shift_ = 60;
};

}  // namespace wvm

#endif  // WVM_RELATIONAL_KEY_INDEX_H_
