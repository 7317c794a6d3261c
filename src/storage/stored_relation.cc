#include "storage/stored_relation.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"

namespace wvm {

StoredRelation::StoredRelation(BaseRelationDef def, int tuples_per_block)
    : def_(std::move(def)),
      tuples_per_block_(tuples_per_block > 0 ? tuples_per_block : 1) {}

const std::vector<Tuple>& StoredRelation::EmptyRows() {
  static const std::vector<Tuple> kEmpty;
  return kEmpty;
}

namespace {

// Orders rows, or row positions, by one column against a probe value: the
// heterogeneous comparator the access paths binary-search with.
struct ByColumn {
  const std::vector<Tuple>* rows;
  size_t column;

  const Value& At(const Tuple& t) const { return t.value(column); }
  const Value& At(size_t pos) const { return (*rows)[pos].value(column); }

  template <typename Row>
  bool operator()(const Row& row, const Value& v) const {
    return At(row) < v;
  }
  template <typename Row>
  bool operator()(const Value& v, const Row& row) const {
    return v < At(row);
  }
};

// Every row position, stably sorted by `column`: (value, position) order.
std::vector<size_t> SortedPositions(const std::vector<Tuple>& rows,
                                    size_t column) {
  std::vector<size_t> positions(rows.size());
  std::iota(positions.begin(), positions.end(), size_t{0});
  std::stable_sort(positions.begin(), positions.end(),
                   [&rows, column](size_t a, size_t b) {
                     return rows[a].value(column) < rows[b].value(column);
                   });
  return positions;
}

// Where the entry of row `pos` sits, or goes, in (value, position) order:
// the value's run of entries, then the position within it.
std::vector<size_t>::iterator EntrySlot(std::vector<size_t>& positions,
                                        const std::vector<Tuple>& rows,
                                        size_t column, size_t pos) {
  auto [first, last] =
      std::equal_range(positions.begin(), positions.end(),
                       rows[pos].value(column), ByColumn{&rows, column});
  return std::lower_bound(first, last, pos);
}

// Keeps every entry naming its row after a row was inserted at `pos` (the
// rows after it moved up one) or erased from there (they moved down one).
// Branch-free: the entries are in value order, so a compare-and-branch on
// position would mispredict about half the time.
void Renumber(std::vector<size_t>& positions, size_t pos, bool inserted) {
  if (inserted) {
    for (size_t& p : positions) {
      p += static_cast<size_t>(p >= pos);
    }
  } else {
    for (size_t& p : positions) {
      p -= static_cast<size_t>(p > pos);
    }
  }
}

}  // namespace

StoredRelation::Rep& StoredRelation::Mutable() {
  if (!rep_) {
    rep_ = std::make_shared<Rep>();
    rep_->secondary.resize(secondary_columns_.size());
    rep_->col_counts.resize(def_.schema.size());
  } else if (rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_);
  }
  return *rep_;
}

void StoredRelation::RebuildSecondary(Rep& rep) const {
  for (size_t k = 0; k < secondary_columns_.size(); ++k) {
    rep.secondary[k] = SortedPositions(rep.rows, secondary_columns_[k]);
  }
}

void StoredRelation::CountTuple(Rep& rep, const Tuple& t, int64_t delta) {
  for (size_t c = 0; c < rep.col_counts.size(); ++c) {
    ColumnCounts& counts = rep.col_counts[c];
    auto it = counts.try_emplace(t.value(c), 0).first;
    it->second += delta;
    if (it->second <= 0) {
      counts.erase(it);
    }
  }
}

Result<size_t> StoredRelation::AttrIndex(const std::string& attr) const {
  std::optional<size_t> i = def_.schema.IndexOf(attr);
  if (!i.has_value()) {
    return Status::NotFound(StrCat("attribute '", attr, "' not in relation ",
                                   def_.name));
  }
  return *i;
}

Status StoredRelation::AddIndex(const std::string& attr, bool clustered) {
  WVM_ASSIGN_OR_RETURN(size_t column, AttrIndex(attr));
  for (const IndexDef& idx : indexes_) {
    if (idx.attribute == attr && idx.clustered == clustered) {
      return Status::AlreadyExists(
          StrCat("index on ", def_.name, ".", attr, " already declared"));
    }
  }
  if (clustered) {
    if (clustered_column_.has_value()) {
      return Status::FailedPrecondition(
          StrCat("relation ", def_.name, " already has a clustered index"));
    }
    clustered_column_ = column;
    if (rep_ != nullptr && !rep_->rows.empty()) {
      Rep& rep = Mutable();
      std::stable_sort(rep.rows.begin(), rep.rows.end(),
                       [column](const Tuple& a, const Tuple& b) {
                         return a.value(column) < b.value(column);
                       });
      RebuildSecondary(rep);
    }
  } else {
    secondary_columns_.push_back(column);
    if (rep_ != nullptr) {
      Rep& rep = Mutable();
      rep.secondary.push_back(SortedPositions(rep.rows, column));
    }
  }
  indexes_.push_back(IndexDef{attr, clustered});
  return Status::OK();
}

Status StoredRelation::Insert(const Tuple& tuple) {
  if (tuple.size() != def_.schema.size()) {
    return Status::InvalidArgument(
        StrCat("tuple ", tuple.ToString(), " arity mismatch for relation ",
               def_.name));
  }
  Rep& rep = Mutable();
  const size_t pos = clustered_column_.has_value()
                         ? ClusteredRange(tuple.value(*clustered_column_))
                               .second
                         : rep.rows.size();
  rep.rows.insert(rep.rows.begin() + pos, tuple);
  for (size_t k = 0; k < rep.secondary.size(); ++k) {
    Positions& positions = rep.secondary[k];
    Renumber(positions, pos, /*inserted=*/true);
    positions.insert(
        EntrySlot(positions, rep.rows, secondary_columns_[k], pos), pos);
  }
  CountTuple(rep, tuple, +1);
  return Status::OK();
}

Status StoredRelation::Delete(const Tuple& tuple) {
  if (tuple.size() != def_.schema.size()) {
    return Status::InvalidArgument(
        StrCat("tuple ", tuple.ToString(), " arity mismatch for relation ",
               def_.name));
  }
  // Locate in the shared rows first so a failed delete never clones.
  const std::optional<size_t> found = Locate(tuple);
  if (!found.has_value()) {
    return Status::FailedPrecondition(
        StrCat("delete of absent tuple ", tuple.ToString(), " from ",
               def_.name));
  }
  const size_t pos = *found;
  Rep& rep = Mutable();
  for (size_t k = 0; k < rep.secondary.size(); ++k) {
    Positions& positions = rep.secondary[k];
    positions.erase(
        EntrySlot(positions, rep.rows, secondary_columns_[k], pos));
    Renumber(positions, pos, /*inserted=*/false);
  }
  rep.rows.erase(rep.rows.begin() + pos);
  CountTuple(rep, tuple, -1);
  return Status::OK();
}

Status StoredRelation::BulkLoad(std::vector<Tuple> tuples) {
  for (const Tuple& t : tuples) {
    if (t.size() != def_.schema.size()) {
      return Status::InvalidArgument(
          StrCat("tuple ", t.ToString(), " arity mismatch for relation ",
                 def_.name));
    }
  }
  Rep& rep = Mutable();
  rep.rows.reserve(rep.rows.size() + tuples.size());
  for (Tuple& t : tuples) {
    CountTuple(rep, t, +1);
    rep.rows.push_back(std::move(t));
  }
  if (clustered_column_.has_value()) {
    const size_t column = *clustered_column_;
    std::stable_sort(rep.rows.begin(), rep.rows.end(),
                     [column](const Tuple& a, const Tuple& b) {
                       return a.value(column) < b.value(column);
                     });
  }
  RebuildSecondary(rep);
  return Status::OK();
}

int StoredRelation::NumBlocks() const {
  return static_cast<int>((NumRows() + tuples_per_block_ - 1) /
                          tuples_per_block_);
}

const IndexDef* StoredRelation::FindIndex(const std::string& attr) const {
  const IndexDef* found = nullptr;
  for (const IndexDef& idx : indexes_) {
    if (idx.attribute != attr) {
      continue;
    }
    if (idx.clustered) {
      return &idx;
    }
    found = &idx;
  }
  return found;
}

double StoredRelation::EstimatedMatchesPerKey(const std::string& attr) const {
  Result<size_t> column = AttrIndex(attr);
  if (!column.ok() || rep_ == nullptr || rep_->rows.empty()) {
    return 0.0;
  }
  const size_t distinct = rep_->col_counts[*column].size();
  if (distinct == 0) {
    // Rows exist but the column has no recorded distinct values (a
    // statistics gap, not an empty relation). Returning the row count — the
    // worst-case fan-out — keeps the estimate monotone in relation size, so
    // the planner degrades to pessimism instead of treating the column as
    // infinitely selective.
    return static_cast<double>(rep_->rows.size());
  }
  return static_cast<double>(rep_->rows.size()) /
         static_cast<double>(distinct);
}

void StoredRelation::ChargeBlock(int b, IOStats* io, ReadCache* cache) const {
  if (cache == nullptr || cache->Charge(def_.name, b)) {
    ++io->page_reads;
  }
}

const std::vector<Tuple>& StoredRelation::FullScan(IOStats* io,
                                                   ReadCache* cache) const {
  for (int b = 0; b < NumBlocks(); ++b) {
    ChargeBlock(b, io, cache);
  }
  ++io->full_scans;
  return rows();
}

std::vector<Tuple> StoredRelation::Block(int b) const {
  std::vector<Tuple> out;
  const std::vector<Tuple>& all = rows();
  const size_t begin = static_cast<size_t>(b) * tuples_per_block_;
  const size_t end =
      std::min(all.size(), begin + static_cast<size_t>(tuples_per_block_));
  for (size_t i = begin; i < end; ++i) {
    out.push_back(all[i]);
  }
  return out;
}

std::pair<size_t, size_t> StoredRelation::ClusteredRange(
    const Value& value) const {
  const std::vector<Tuple>& all = rows();
  auto [first, last] = std::equal_range(all.begin(), all.end(), value,
                                        ByColumn{&all, *clustered_column_});
  return {static_cast<size_t>(first - all.begin()),
          static_cast<size_t>(last - all.begin())};
}

std::span<const size_t> StoredRelation::SecondaryMatches(
    size_t k, const Value& value) const {
  if (rep_ == nullptr) {
    return {};
  }
  const Positions& positions = rep_->secondary[k];
  auto [first, last] =
      std::equal_range(positions.begin(), positions.end(), value,
                       ByColumn{&rep_->rows, secondary_columns_[k]});
  return {first, last};
}

std::optional<size_t> StoredRelation::Locate(const Tuple& tuple) const {
  const std::vector<Tuple>& all = rows();
  if (clustered_column_.has_value()) {
    auto [first, last] = ClusteredRange(tuple.value(*clustered_column_));
    for (size_t pos = first; pos < last; ++pos) {
      if (all[pos] == tuple) {
        return pos;
      }
    }
    return std::nullopt;
  }
  if (!secondary_columns_.empty()) {
    for (size_t pos :
         SecondaryMatches(0, tuple.value(secondary_columns_[0]))) {
      if (all[pos] == tuple) {
        return pos;
      }
    }
    return std::nullopt;
  }
  auto it = std::find(all.begin(), all.end(), tuple);
  if (it == all.end()) {
    return std::nullopt;
  }
  return static_cast<size_t>(it - all.begin());
}

Result<std::vector<Tuple>> StoredRelation::IndexProbe(const std::string& attr,
                                                      const Value& value,
                                                      IOStats* io,
                                                      ReadCache* cache) const {
  const IndexDef* idx = FindIndex(attr);
  if (idx == nullptr) {
    return Status::FailedPrecondition(
        StrCat("no index on ", def_.name, ".", attr));
  }
  WVM_ASSIGN_OR_RETURN(size_t column, AttrIndex(attr));
  ++io->index_probes;

  const std::vector<Tuple>& all = rows();
  const size_t k = static_cast<size_t>(tuples_per_block_);
  if (idx->clustered) {
    // The matches are one contiguous run of positions: one read per block
    // it spans. An unsuccessful probe still touches the block where the
    // value would live (if the file is non-empty).
    auto [first, last] = ClusteredRange(value);
    if (first == last) {
      if (!all.empty()) {
        ChargeBlock(std::min(static_cast<int>(first / k), NumBlocks() - 1),
                    io, cache);
      }
      return std::vector<Tuple>();
    }
    for (size_t b = first / k; b <= (last - 1) / k; ++b) {
      ChargeBlock(static_cast<int>(b), io, cache);
    }
    return std::vector<Tuple>(all.begin() + first, all.begin() + last);
  }

  const size_t index = static_cast<size_t>(
      std::find(secondary_columns_.begin(), secondary_columns_.end(),
                column) -
      secondary_columns_.begin());
  const std::span<const size_t> hits = SecondaryMatches(index, value);
  std::vector<Tuple> matches;
  matches.reserve(hits.size());
  for (size_t pos : hits) {
    matches.push_back(all[pos]);
  }
  if (cache == nullptr) {
    // Non-clustered, no caching: one read per matching tuple (Appendix D
    // charges J(r, attr) reads for a non-clustered probe).
    io->page_reads += static_cast<int64_t>(matches.size());
  } else {
    // With a cache, repeated fetches of a block are free, so the charge
    // collapses to the distinct uncached blocks. Positions ascend, so a
    // block's matches are adjacent and each block is offered to the cache
    // once, in ascending order.
    for (size_t i = 0; i < hits.size(); ++i) {
      if (i == 0 || hits[i] / k != hits[i - 1] / k) {
        ChargeBlock(static_cast<int>(hits[i] / k), io, cache);
      }
    }
  }
  return matches;
}

Status StoredRelation::CheckIndexes() const {
  const std::vector<Tuple>& all = rows();
  if (clustered_column_.has_value()) {
    const size_t c = *clustered_column_;
    for (size_t i = 1; i < all.size(); ++i) {
      if (all[i].value(c) < all[i - 1].value(c)) {
        return Status::Internal(StrCat(def_.name, " row ", i,
                                       " breaks the clustered order"));
      }
    }
  }
  if (rep_ != nullptr && rep_->secondary.size() != secondary_columns_.size()) {
    return Status::Internal(StrCat(def_.name, " has ", rep_->secondary.size(),
                                   " permutations for ",
                                   secondary_columns_.size(),
                                   " non-clustered indexes"));
  }
  for (size_t k = 0; k < secondary_columns_.size(); ++k) {
    const Positions expected = SortedPositions(all, secondary_columns_[k]);
    const Positions& actual = rep_ != nullptr ? rep_->secondary[k] : expected;
    if (actual != expected) {
      return Status::Internal(StrCat(
          "non-clustered index on ", def_.name, ".",
          def_.schema.attribute(secondary_columns_[k]).name,
          " is not the (value, position) order of its rows"));
    }
  }
  return Status::OK();
}

}  // namespace wvm
