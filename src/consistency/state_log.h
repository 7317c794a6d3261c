#ifndef WVM_CONSISTENCY_STATE_LOG_H_
#define WVM_CONSISTENCY_STATE_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/relation.h"

namespace wvm {

/// Additive multiset fingerprint ("Incremental Multiset Hash Functions",
/// Clarke et al., ASIACRYPT 2003): the sum over tuples of multiplicity times
/// a per-tuple hash, in two wrapping 64-bit lanes. It maps + on Z-relations
/// to + on fingerprints, so a state's fingerprint advances by its delta's in
/// O(|delta|). Equal states always have equal fingerprints; the converse
/// does not hold, so the checker uses a fingerprint only to skip pairs that
/// cannot be equal, never to declare two states equal.
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  static Fingerprint Of(const Relation& r);

  Fingerprint& operator+=(const Fingerprint& other) {
    lo += other.lo;
    hi += other.hi;
    return *this;
  }
  bool operator==(const Fingerprint& other) const = default;
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& f) const {
    return static_cast<size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// One site's recorded view states X_0, X_1, ..., X_{n-1}, kept as exact
/// deltas: delta(0) is X_0 itself and delta(i) = X_i - X_{i-1}, so X_i is
/// the sum of delta(0..i). Each state also carries the clock it was recorded
/// at. The latest state is kept materialized (O(|delta|) per append); any
/// other state is Materialize()d on demand.
class ViewStates {
 public:
  size_t size() const { return clocks_.size(); }
  bool empty() const { return clocks_.empty(); }

  /// Appends X_n = X_{n-1} + delta (the first append is X_0).
  void AppendDelta(Relation delta, uint64_t clock);
  /// Appends X_n given in full; keeps only its change from X_{n-1}. O(|X|).
  void AppendState(const Relation& state, uint64_t clock);

  const Relation& delta(size_t i) const { return deltas_[i]; }
  uint64_t clock(size_t i) const { return clocks_[i]; }
  /// X_{n-1}. Pre: !empty().
  const Relation& back() const { return last_; }

  /// X_i, summed from X_0: O(|X_0| + sum of |delta(1..i)|).
  Relation Materialize(size_t i) const;
  /// Every state, in order (tests and small debug logs).
  std::vector<Relation> MaterializeAll() const;

 private:
  std::vector<Relation> deltas_;
  std::vector<uint64_t> clocks_;
  Relation last_;
};

/// Chronological record of an execution, in the vocabulary of Section 3.1:
///
///   * source_view_states[i] = V[ss_i] — the view expression evaluated at
///     the source immediately after the i-th update event (index 0 is the
///     initial state ss_0);
///   * warehouse_view_states[j] = V[ws_j] — the materialized view after the
///     j-th warehouse event (index 0 is the initial state ws_0).
///
/// Each state carries the global event sequence number at which it was
/// recorded (both sites share one logical clock inside a simulator), which
/// the staleness analysis uses: how long after ss_i does the warehouse first
/// show V[ss_i]? The consistency checker decides the paper's correctness
/// levels from these two sequences alone.
///
/// The simulator records deltas (V<u> at the source, the change to MV at the
/// warehouse); hand-built logs and the multisource simulator record full
/// states, which the log turns into deltas.
struct StateLog {
  ViewStates source_view_states;
  ViewStates warehouse_view_states;
  /// Non-empty when a from-scratch evaluation of the source view disagreed
  /// with the running sum of recorded source deltas
  /// (RecordCheckedSourceState). CheckConsistency refuses such a log.
  std::string source_drift;

  void RecordSourceDelta(Relation delta, uint64_t clock) {
    source_view_states.AppendDelta(std::move(delta), clock);
  }
  void RecordWarehouseDelta(Relation delta, uint64_t clock) {
    warehouse_view_states.AppendDelta(std::move(delta), clock);
  }
  void RecordSourceState(const Relation& v, uint64_t clock) {
    source_view_states.AppendState(v, clock);
  }
  void RecordWarehouseState(const Relation& v, uint64_t clock) {
    warehouse_view_states.AppendState(v, clock);
  }
  /// Records the next source state as `evaluated`, a from-scratch
  /// evaluation of the view, and checks that the running sum agrees with
  /// it: the previous state plus `delta` must equal `evaluated`, otherwise
  /// source_drift says how they differ.
  void RecordCheckedSourceState(const Relation& delta,
                                const Relation& evaluated, uint64_t clock);

  std::string ToString() const;
};

/// The difference D = W_j - S_i between one source state and one warehouse
/// state of a log, moved between pairs by applying the recorded deltas: a
/// step in i subtracts a source delta, a step in j adds a warehouse delta,
/// each in O(|delta|). S_i equals W_j iff D is empty, which is exact
/// because every delta is. Every state's fingerprint is summed from the
/// deltas once, at construction (O(|X_0| + sum of |delta|) per side); a
/// fingerprint mismatch proves two states differ without moving D. Pre:
/// both sequences non-empty.
class StatePair {
 public:
  StatePair(const ViewStates& source, const ViewStates& warehouse);

  /// True iff source state i equals warehouse state j.
  bool Equal(size_t i, size_t j);

  const Fingerprint& source_fingerprint(size_t i) const {
    return source_fingerprints_[i];
  }
  const Fingerprint& warehouse_fingerprint(size_t j) const {
    return warehouse_fingerprints_[j];
  }

 private:
  void MoveTo(size_t i, size_t j);
  void Apply(const Relation& delta, int64_t sign);

  const ViewStates& source_;
  const ViewStates& warehouse_;
  std::vector<Fingerprint> source_fingerprints_;
  std::vector<Fingerprint> warehouse_fingerprints_;
  size_t i_ = 0;
  size_t j_ = 0;
  Relation diff_;  // W_j_ - S_i_
};

}  // namespace wvm

#endif  // WVM_CONSISTENCY_STATE_LOG_H_
