#ifndef WVM_STORAGE_STORED_RELATION_H_
#define WVM_STORAGE_STORED_RELATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "query/view_def.h"
#include "relational/tuple.h"
#include "storage/io_stats.h"

namespace wvm {

/// Declaration of an index on a stored relation. At most one index per
/// relation may be clustered (it dictates physical tuple order). Matches the
/// index inventory of the paper's Scenario 1: clustering indexes on r1.X,
/// r2.X, r3.Y plus a non-clustering index on r2.Y.
struct IndexDef {
  std::string attribute;
  bool clustered = false;
};

/// A base relation stored as a blocked heap file of K tuples per block —
/// the physical model behind the paper's I/O analysis (Appendix D). Tuples
/// are bags (duplicates allowed). If a clustered index exists, tuples are
/// kept physically ordered by that attribute, so the matches for one value
/// occupy ~ceil(matches/K) adjacent blocks.
///
/// I/O charging rules (Appendix D):
///   * full scan: NumBlocks() = ceil(rows/K) page reads;
///   * clustered index probe: one read per distinct block containing a
///     match (>= 1 even when there are no matches: the probe touches the
///     block where matches would reside);
///   * non-clustered index probe: one read per matching tuple;
///   * no caching: repeated probes re-charge.
/// Index structures themselves are memory-resident and free.
///
/// Access paths. Every declared index is a real search structure, so a
/// probe costs O(log n + matches) and a delete finds its row in
/// O(log n + copies of its key):
///   * the clustered index is the file itself — rows sorted by the
///     clustered attribute — so a probe is one equal_range over positions;
///   * each non-clustered index is a permutation of row positions sorted by
///     (value, position), so its matches come out in physical order.
/// Only files with no index at all find a deleted row by a full scan.
/// Each index also keeps its column's distinct-value count, in step with
/// the search every insert and delete already makes in it.
/// Writes still cost O(n): the dense file defines block = position / K, so
/// an insert or delete shifts the rows after its position and renumbers
/// the permutation entries at or after it (moves, not comparisons).
///
/// Row storage is copy-on-write (the same idiom as Relation's counts map):
/// copying a StoredRelation — and hence a whole StorageMap — shares the
/// underlying rows, index permutations and distinct counts; the first
/// mutation of a shared relation clones them — the row array, one position
/// array per non-clustered index and one count per index, no per-value
/// nodes. A copied StorageMap therefore acts as
/// a consistent snapshot that concurrent readers may scan and probe while
/// updates proceed against the head version. Concurrent reads of relations
/// sharing storage are safe; mutating one StoredRelation object
/// concurrently with copying or reading that same object is not (the usual
/// container contract).
class StoredRelation {
 public:
  StoredRelation(BaseRelationDef def, int tuples_per_block);

  /// Declares an index. Fails if `attr` is unknown, or a second clustered
  /// index is requested. Must be called before data is loaded (clustered
  /// order is maintained from then on).
  Status AddIndex(const std::string& attr, bool clustered);

  Status Insert(const Tuple& tuple);
  /// Removes the physically first copy of `tuple`. Fails without cloning
  /// shared storage if the arity is wrong or the tuple is absent.
  Status Delete(const Tuple& tuple);

  /// Appends `tuples` in one pass: reserve, append all, then a single
  /// stable sort by the clustered attribute (when one exists) and one per
  /// non-clustered index. Equivalent to inserting row by row but
  /// O(n log n) total instead of O(n^2) from per-tuple re-shifts of the
  /// clustered order; used for initial loads.
  Status BulkLoad(std::vector<Tuple> tuples);

  const BaseRelationDef& def() const { return def_; }
  int tuples_per_block() const { return tuples_per_block_; }
  size_t NumRows() const { return rows().size(); }
  /// I = ceil(C/K); 0 for an empty relation.
  int NumBlocks() const;

  const std::vector<IndexDef>& indexes() const { return indexes_; }
  /// Best index on `attr`: the clustered one if it matches, else a
  /// non-clustered one, else nullptr.
  const IndexDef* FindIndex(const std::string& attr) const;

  /// Expected matches per key for `attr` — rows / distinct values — the
  /// join factor J(r, attr) the planner uses (free: index metadata). O(1)
  /// on an indexed attribute, whose index keeps its distinct count; the
  /// planner asks only about those. On an unindexed attribute it counts
  /// the column's distinct values, O(n log n). 0 for an empty relation or
  /// an unknown attribute.
  double EstimatedMatchesPerKey(const std::string& attr) const;

  /// Reads the whole file: charges NumBlocks() page reads (minus blocks
  /// already read within the query when a ReadCache is supplied).
  const std::vector<Tuple>& FullScan(IOStats* io,
                                     ReadCache* cache = nullptr) const;

  /// Tuples of block `b` (0-based); charging is the caller's concern (the
  /// nested-loop evaluator charges per block load).
  std::vector<Tuple> Block(int b) const;

  /// Looks up all tuples with `tuple[attr] == value` through an index,
  /// charging per the rules above. With a ReadCache, charging collapses to
  /// one read per distinct uncached block (for non-clustered probes too:
  /// re-fetching a cached block is free). Fails if there is no index on
  /// `attr`.
  Result<std::vector<Tuple>> IndexProbe(const std::string& attr,
                                        const Value& value, IOStats* io,
                                        ReadCache* cache = nullptr) const;

  /// Charges one read for block `b` unless the cache already holds it.
  void ChargeBlock(int b, IOStats* io, ReadCache* cache) const;

  /// Raw rows without I/O charge (for tests and planner diagnostics).
  const std::vector<Tuple>& rows() const {
    return rep_ ? rep_->rows : EmptyRows();
  }

  /// Verifies every access path against rows(): the file is ordered by the
  /// clustered attribute, each non-clustered permutation holds every
  /// position once, sorted by (value, position), and every index's distinct
  /// count matches a recount. O(n log n); for tests.
  Status CheckIndexes() const;

 private:
  /// Row positions in (value, position) order: a non-clustered index.
  using Positions = std::vector<size_t>;

  /// The shared (copy-on-write) storage: the physical rows, one position
  /// permutation per non-clustered index (parallel to secondary_columns_),
  /// and each index's distinct-value count — all of which must stay in
  /// lockstep under every mutation.
  struct Rep {
    std::vector<Tuple> rows;
    std::vector<Positions> secondary;
    int64_t clustered_distinct = 0;           // 0 without a clustered index
    std::vector<int64_t> secondary_distinct;  // parallel to secondary
  };

  static const std::vector<Tuple>& EmptyRows();

  /// Positions [first, last) of the rows whose clustered attribute equals
  /// `value`; first is where such a row would go when there is none.
  std::pair<size_t, size_t> ClusteredRange(const Value& value) const;
  /// Positions of the rows holding `value`, ascending, through
  /// non-clustered index `k`.
  std::span<const size_t> SecondaryMatches(size_t k,
                                           const Value& value) const;
  /// Position of the physically first row equal to `tuple`, through the
  /// clustered index, else a non-clustered one, else a full scan.
  std::optional<size_t> Locate(const Tuple& tuple) const;
  /// Sorts the rows by the clustered attribute, then re-derives every
  /// non-clustered permutation and every distinct count from them — used
  /// after operations that reorder or append rows wholesale.
  void RebuildIndexes(Rep& rep) const;
  /// Distinct values of `column` in the non-empty rep_: the count its index
  /// keeps, or a count of the column when it has no index.
  int64_t DistinctValues(size_t column) const;

  Result<size_t> AttrIndex(const std::string& attr) const;

  /// The mutable rep, cloned first if storage is currently shared.
  Rep& Mutable();

  BaseRelationDef def_;
  int tuples_per_block_;
  std::vector<IndexDef> indexes_;
  std::optional<size_t> clustered_column_;
  /// Column of each non-clustered index, in declaration order.
  std::vector<size_t> secondary_columns_;
  std::shared_ptr<Rep> rep_;  // null = empty
};

}  // namespace wvm

#endif  // WVM_STORAGE_STORED_RELATION_H_
