#ifndef WVM_RELATIONAL_TUPLE_H_
#define WVM_RELATIONAL_TUPLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "relational/value.h"

namespace wvm {

/// Hash-combining fold used for tuple hashing: a left fold of per-value
/// hashes starting at kTupleHashSeed. Exposed so that key views and
/// concatenations can reproduce (or extend) a tuple's hash from per-value
/// hashes without re-walking the tuple:
///
///   Hash([v0..vn]) = Fold(...Fold(Fold(seed, h(v0)), h(v1))..., h(vn))
///
/// and therefore Hash(a ++ b) = fold of b's value hashes onto Hash(a).
inline constexpr size_t kTupleHashSeed = 0x9e3779b97f4a7c15ULL;

inline size_t TupleHashFold(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9e3779b9 + (h << 6) + (h >> 2));
}

/// A row: an ordered list of values. The tuple itself is unsigned; the sign
/// (+ existing/inserted, - deleted) of the paper's signed-tuple algebra lives
/// in the multiplicity a Relation associates with the tuple, and in the
/// explicit `sign` of a bound tuple inside a query term.
///
/// A Tuple is a one-pointer handle to an immutable, reference-counted row:
/// one allocation holds the count, the memoized hash, the arity and the
/// values inline. Copying a tuple increments the count (one atomic add),
/// moving one steals the pointer, and the last handle to go frees the row.
/// So a relation clone, a stored file's shift and a freed checkpoint move
/// 8-byte handles, never value vectors. The empty tuple holds no row.
///
/// Rows are immutable after construction (there is no mutating accessor),
/// which is the invariant that makes sharing them, and the memoized hash,
/// safe: the hash is computed from the values at most once and cached in
/// the row. Both the count and the hash memo are atomics, so concurrent
/// threads may copy, drop and hash handles to the same row (parallel term
/// evaluation shares catalog tuples); racing hash writers store the same
/// value. Mutating one Tuple object while another thread reads that same
/// object is not safe (the usual value contract).
class Tuple {
 public:
  Tuple() noexcept = default;
  explicit Tuple(std::vector<Value>&& values);
  explicit Tuple(std::span<const Value> values);

  Tuple(const Tuple& other) noexcept : row_(other.row_) { Retain(row_); }
  Tuple(Tuple&& other) noexcept : row_(std::exchange(other.row_, nullptr)) {}
  Tuple& operator=(const Tuple& other) noexcept {
    Retain(other.row_);
    Release(std::exchange(row_, other.row_));
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release(std::exchange(row_, std::exchange(other.row_, nullptr)));
    }
    return *this;
  }
  ~Tuple() { Release(row_); }

  /// Convenience for the paper's all-integer examples: Tuple::Ints({1, 2}).
  static Tuple Ints(std::initializer_list<int64_t> ints);

  size_t size() const { return row_ == nullptr ? 0 : row_->size; }
  const Value& value(size_t i) const { return row_->values()[i]; }
  std::span<const Value> values() const {
    return row_ == nullptr ? std::span<const Value>()
                           : std::span<const Value>(row_->values(), row_->size);
  }

  /// Projection onto `indices` (may repeat/reorder).
  Tuple Project(const std::vector<size_t>& indices) const;

  /// Concatenation (for cross products). If this tuple's hash is already
  /// cached, the result's hash is derived by folding `other`'s value hashes
  /// onto it instead of re-walking this tuple's values.
  Tuple Concat(const Tuple& other) const;

  /// Concat(other.Project(other_indices)) in a single allocation — the
  /// probe-emit step of the natural-join kernel.
  Tuple ConcatProjected(const Tuple& other,
                        const std::vector<size_t>& other_indices) const;

  /// Nominal byte width on the wire.
  int ByteWidth() const;

  /// Inline, like Value's comparisons: hash-map probes and ordered sets
  /// compare tuples in their innermost loops.
  bool operator==(const Tuple& other) const {
    if (row_ == other.row_) {
      return true;
    }
    const std::span<const Value> a = values();
    const std::span<const Value> b = other.values();
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  /// Lexicographic order, for canonical printing.
  bool operator<(const Tuple& other) const {
    const std::span<const Value> a = values();
    const std::span<const Value> b = other.values();
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

  /// Memoized; O(size) only on the first call per row.
  size_t Hash() const {
    if (row_ == nullptr) {
      return kTupleHashSeed;
    }
    size_t h = row_->hash.load(std::memory_order_relaxed);
    if (h == kUnset) {
      h = ComputeHash();
      row_->hash.store(h, std::memory_order_relaxed);
    }
    return h;
  }

  /// Whether Hash() would return without walking the values (for tests).
  bool hash_cached() const {
    return row_ == nullptr ||
           row_->hash.load(std::memory_order_relaxed) != kUnset;
  }

  /// Paper-style rendering: [1,2].
  std::string ToString() const;

 private:
  // 0 doubles as "not yet computed": a tuple whose true hash is 0 simply
  // recomputes on every call, which is correct (and vanishingly rare).
  static constexpr size_t kUnset = 0;

  // The shared row: this header, then `size` Values in the same allocation.
  // A row is held by fewer than 2^32 handles (that many would take 32 GiB).
  struct Row {
    std::atomic<uint32_t> refs;
    uint32_t size;
    std::atomic<size_t> hash;

    Value* values() {
      return std::launder(reinterpret_cast<Value*>(
          reinterpret_cast<unsigned char*>(this) + sizeof(Row)));
    }
  };
  static_assert(sizeof(Row) % alignof(Value) == 0,
                "values must start aligned right after the row header");

  static void Retain(Row* row) noexcept {
    if (row != nullptr) {
      row->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  static void Release(Row* row) noexcept {
    if (row != nullptr &&
        row->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy(row);
    }
  }
  static void Destroy(Row* row) noexcept;

  // A tuple of `n` values whose i-th value is constructed from value_at(i)
  // (a copy, or a move when value_at returns an rvalue reference).
  template <typename ValueAt>
  static Tuple Build(size_t n, const ValueAt& value_at);

  size_t ComputeHash() const;

  Row* row_ = nullptr;  // null = the empty tuple
};

static_assert(sizeof(Tuple) == sizeof(void*), "a Tuple is one pointer");

/// A non-owning view of selected columns of a tuple that hashes and compares
/// exactly like the materialized projection `tuple.Project(*columns)`.
/// Join kernels probe their hash tables with these views, so the per-probe
/// key allocation of Tuple::Project disappears from the hot path.
struct TupleKeyView {
  TupleKeyView(const Tuple& t, const std::vector<size_t>& cols)
      : tuple(&t), columns(&cols), hash(kTupleHashSeed) {
    for (size_t c : cols) {
      hash = TupleHashFold(hash, t.value(c).Hash());
    }
  }

  const Tuple* tuple;
  const std::vector<size_t>* columns;
  size_t hash;
};

struct TupleHash {
  using is_transparent = void;
  size_t operator()(const Tuple& t) const { return t.Hash(); }
  size_t operator()(const TupleKeyView& v) const { return v.hash; }
};

struct TupleEq {
  using is_transparent = void;
  bool operator()(const Tuple& a, const Tuple& b) const { return a == b; }
  bool operator()(const TupleKeyView& v, const Tuple& t) const {
    if (t.size() != v.columns->size()) {
      return false;
    }
    for (size_t i = 0; i < t.size(); ++i) {
      if (t.value(i) != v.tuple->value((*v.columns)[i])) {
        return false;
      }
    }
    return true;
  }
  bool operator()(const Tuple& t, const TupleKeyView& v) const {
    return (*this)(v, t);
  }
  bool operator()(const TupleKeyView& a, const TupleKeyView& b) const {
    if (a.columns->size() != b.columns->size()) {
      return false;
    }
    for (size_t i = 0; i < a.columns->size(); ++i) {
      if (a.tuple->value((*a.columns)[i]) != b.tuple->value((*b.columns)[i])) {
        return false;
      }
    }
    return true;
  }
};

std::ostream& operator<<(std::ostream& os, const Tuple& t);

}  // namespace wvm

#endif  // WVM_RELATIONAL_TUPLE_H_
