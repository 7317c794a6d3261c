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

// Distinct values along rows, or row positions, sorted by `by`'s column:
// one per run of equal values.
template <typename Sorted>
int64_t DistinctRuns(const Sorted& sorted, const ByColumn& by) {
  int64_t runs = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    runs += static_cast<int64_t>(i == 0 ||
                                 by.At(sorted[i - 1]) < by.At(sorted[i]));
  }
  return runs;
}

// In (value, position) order: the run of entries holding row `pos`'s value,
// and the slot where the entry of row `pos` sits, or goes, within it.
struct EntryRun {
  std::vector<size_t>::iterator first;
  std::vector<size_t>::iterator last;
  std::vector<size_t>::iterator slot;
};

EntryRun FindEntry(std::vector<size_t>& positions,
                   const std::vector<Tuple>& rows, size_t column, size_t pos) {
  auto [first, last] =
      std::equal_range(positions.begin(), positions.end(),
                       rows[pos].value(column), ByColumn{&rows, column});
  return {first, last, std::lower_bound(first, last, pos)};
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
    rep_->secondary_distinct.resize(secondary_columns_.size());
  } else if (rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_);
  }
  return *rep_;
}

void StoredRelation::RebuildIndexes(Rep& rep) const {
  if (clustered_column_.has_value()) {
    const size_t column = *clustered_column_;
    std::stable_sort(rep.rows.begin(), rep.rows.end(),
                     [column](const Tuple& a, const Tuple& b) {
                       return a.value(column) < b.value(column);
                     });
    rep.clustered_distinct =
        DistinctRuns(rep.rows, ByColumn{&rep.rows, column});
  }
  for (size_t k = 0; k < secondary_columns_.size(); ++k) {
    rep.secondary[k] = SortedPositions(rep.rows, secondary_columns_[k]);
    rep.secondary_distinct[k] = DistinctRuns(
        rep.secondary[k], ByColumn{&rep.rows, secondary_columns_[k]});
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
      RebuildIndexes(Mutable());
    }
  } else {
    secondary_columns_.push_back(column);
    if (rep_ != nullptr) {
      Rep& rep = Mutable();
      rep.secondary.push_back(SortedPositions(rep.rows, column));
      rep.secondary_distinct.push_back(
          DistinctRuns(rep.secondary.back(), ByColumn{&rep.rows, column}));
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
  size_t pos = rep.rows.size();
  if (clustered_column_.has_value()) {
    // An empty run means the value is new.
    const auto [first, last] = ClusteredRange(tuple.value(*clustered_column_));
    rep.clustered_distinct += static_cast<int64_t>(first == last);
    pos = last;
  }
  rep.rows.insert(rep.rows.begin() + pos, tuple);
  for (size_t k = 0; k < rep.secondary.size(); ++k) {
    Positions& positions = rep.secondary[k];
    Renumber(positions, pos, /*inserted=*/true);
    const EntryRun run =
        FindEntry(positions, rep.rows, secondary_columns_[k], pos);
    rep.secondary_distinct[k] += static_cast<int64_t>(run.first == run.last);
    positions.insert(run.slot, pos);
  }
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
  if (clustered_column_.has_value()) {
    // The file is in clustered order, so the row's value leaves with it
    // unless a neighbouring row holds it too.
    const size_t c = *clustered_column_;
    const Value& value = tuple.value(c);
    const bool shared =
        (pos > 0 && rep.rows[pos - 1].value(c) == value) ||
        (pos + 1 < rep.rows.size() && rep.rows[pos + 1].value(c) == value);
    rep.clustered_distinct -= static_cast<int64_t>(!shared);
  }
  for (size_t k = 0; k < rep.secondary.size(); ++k) {
    Positions& positions = rep.secondary[k];
    const EntryRun run =
        FindEntry(positions, rep.rows, secondary_columns_[k], pos);
    rep.secondary_distinct[k] -=
        static_cast<int64_t>(run.last - run.first == 1);
    positions.erase(run.slot);
    Renumber(positions, pos, /*inserted=*/false);
  }
  rep.rows.erase(rep.rows.begin() + pos);
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
  rep.rows.insert(rep.rows.end(), std::make_move_iterator(tuples.begin()),
                  std::make_move_iterator(tuples.end()));
  RebuildIndexes(rep);
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
  return static_cast<double>(rep_->rows.size()) /
         static_cast<double>(DistinctValues(*column));
}

int64_t StoredRelation::DistinctValues(size_t column) const {
  if (clustered_column_ == column) {
    return rep_->clustered_distinct;
  }
  for (size_t k = 0; k < secondary_columns_.size(); ++k) {
    if (secondary_columns_[k] == column) {
      return rep_->secondary_distinct[k];
    }
  }
  std::vector<Value> values;
  values.reserve(rep_->rows.size());
  for (const Tuple& row : rep_->rows) {
    values.push_back(row.value(column));
  }
  std::sort(values.begin(), values.end());
  return std::unique(values.begin(), values.end()) - values.begin();
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
  if (rep_ == nullptr) {
    return Status::OK();
  }
  const std::vector<Tuple>& all = rep_->rows;
  auto count_error = [this](size_t column, int64_t kept, int64_t recount) {
    return Status::Internal(StrCat("index on ", def_.name, ".",
                                   def_.schema.attribute(column).name,
                                   " keeps ", kept, " distinct values; ",
                                   recount, " recounted"));
  };
  if (clustered_column_.has_value()) {
    const size_t c = *clustered_column_;
    for (size_t i = 1; i < all.size(); ++i) {
      if (all[i].value(c) < all[i - 1].value(c)) {
        return Status::Internal(StrCat(def_.name, " row ", i,
                                       " breaks the clustered order"));
      }
    }
    const int64_t recount = DistinctRuns(all, ByColumn{&all, c});
    if (rep_->clustered_distinct != recount) {
      return count_error(c, rep_->clustered_distinct, recount);
    }
  }
  if (rep_->secondary.size() != secondary_columns_.size() ||
      rep_->secondary_distinct.size() != secondary_columns_.size()) {
    return Status::Internal(StrCat(
        def_.name, " has ", rep_->secondary.size(), " permutations and ",
        rep_->secondary_distinct.size(), " distinct counts for ",
        secondary_columns_.size(), " non-clustered indexes"));
  }
  for (size_t k = 0; k < secondary_columns_.size(); ++k) {
    const size_t c = secondary_columns_[k];
    const Positions expected = SortedPositions(all, c);
    if (rep_->secondary[k] != expected) {
      return Status::Internal(StrCat(
          "non-clustered index on ", def_.name, ".",
          def_.schema.attribute(c).name,
          " is not the (value, position) order of its rows"));
    }
    const int64_t recount = DistinctRuns(expected, ByColumn{&all, c});
    if (rep_->secondary_distinct[k] != recount) {
      return count_error(c, rep_->secondary_distinct[k], recount);
    }
  }
  return Status::OK();
}

}  // namespace wvm
