#include "relational/relation.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace wvm {

std::string SignedTuple::ToString() const {
  std::string out = tuple.ToString();
  if (sign < 0) {
    out.insert(out.begin(), '-');
  }
  return out;
}

const Relation::CountsMap& Relation::EmptyCounts() {
  static const CountsMap* empty = new CountsMap();
  return *empty;
}

Relation::CountsMap& Relation::Mutable(size_t reserve_hint) {
  if (!counts_) {
    counts_ = std::make_shared<CountsMap>();
    if (reserve_hint > 0) {
      counts_->reserve(reserve_hint);
    }
  } else if (counts_.use_count() > 1) {
    counts_ = std::make_shared<CountsMap>(*counts_, reserve_hint);
  }
  return *counts_;
}

Relation Relation::FromTuples(Schema schema,
                              std::initializer_list<Tuple> tuples) {
  Relation r(std::move(schema));
  for (const Tuple& t : tuples) {
    r.Insert(t);
  }
  return r;
}

Relation Relation::FromTuples(Schema schema, const std::vector<Tuple>& tuples) {
  Relation r(std::move(schema));
  for (const Tuple& t : tuples) {
    r.Insert(t);
  }
  return r;
}

Relation Relation::WithSchema(Schema schema) const {
  Relation out(std::move(schema));
  out.counts_ = counts_;
  return out;
}

void Relation::Reserve(size_t n) {
  if (n > 0) {
    Mutable().reserve(n);
  }
}

void Relation::Insert(const Tuple& tuple, int64_t count) {
  if (count == 0) {
    return;
  }
  Mutable().AddCount(tuple, count);
}

void Relation::Insert(Tuple&& tuple, int64_t count) {
  if (count == 0) {
    return;
  }
  Mutable().AddCount(std::move(tuple), count);
}

int64_t Relation::CountOf(const Tuple& tuple) const {
  const CountsMap& counts = entries();
  auto it = counts.find(tuple);
  return it == counts.end() ? 0 : it->second;
}

int64_t Relation::TotalPositive() const {
  int64_t total = 0;
  for (const auto& [t, c] : entries()) {
    if (c > 0) {
      total += c;
    }
  }
  return total;
}

int64_t Relation::TotalAbsolute() const {
  int64_t total = 0;
  for (const auto& [t, c] : entries()) {
    total += std::abs(c);
  }
  return total;
}

bool Relation::HasNegative() const {
  for (const auto& [t, c] : entries()) {
    if (c < 0) {
      return true;
    }
  }
  return false;
}

void Relation::Add(const Relation& other) {
  if (other.IsEmpty()) {
    return;
  }
  if (IsEmpty() && schema_.size() == other.schema_.size()) {
    // Adding into an empty relation is a copy: share the other's storage.
    counts_ = other.counts_;
    return;
  }
  CountsMap& m = Mutable(other.entries().size());
  for (const auto& [t, c] : other.entries()) {
    m.AddCount(t, c);
  }
}

Relation Relation::Negated() const {
  Relation out(schema_);
  if (!IsEmpty()) {
    CountsMap& m = out.Mutable();
    m.reserve(entries().size());
    for (const auto& [t, c] : entries()) {
      m.EmplaceUnique(t, -c);
    }
  }
  return out;
}

Relation Relation::Scaled(int64_t factor) const {
  if (factor == 1) {
    return *this;
  }
  if (factor == -1) {
    return Negated();
  }
  Relation out(schema_);
  if (factor != 0 && !IsEmpty()) {
    CountsMap& m = out.Mutable();
    m.reserve(entries().size());
    for (const auto& [t, c] : entries()) {
      m.EmplaceUnique(t, c * factor);
    }
  }
  return out;
}

void Relation::Clear() { counts_.reset(); }

Relation Relation::Positive() const {
  Relation out(schema_);
  if (!IsEmpty()) {
    CountsMap& m = out.Mutable(entries().size());
    for (const auto& [t, c] : entries()) {
      if (c > 0) {
        m.EmplaceUnique(t, c);
      }
    }
  }
  return out;
}

Relation Relation::NegativePart() const {
  Relation out(schema_);
  if (!IsEmpty()) {
    CountsMap& m = out.Mutable(entries().size());
    for (const auto& [t, c] : entries()) {
      if (c < 0) {
        m.EmplaceUnique(t, -c);
      }
    }
  }
  return out;
}

int64_t Relation::ByteSize() const {
  int64_t bytes = 0;
  for (const auto& [t, c] : entries()) {
    bytes += std::abs(c) * t.ByteWidth();
  }
  return bytes;
}

std::vector<std::pair<Tuple, int64_t>> Relation::SortedEntries() const {
  const CountsMap& counts = entries();
  std::vector<std::pair<Tuple, int64_t>> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

bool Relation::operator==(const Relation& other) const {
  if (counts_ == other.counts_) {
    return true;  // shared storage (covers both-empty)
  }
  const CountsMap& counts = entries();
  if (counts.size() != other.entries().size()) {
    return false;
  }
  for (const auto& [t, c] : counts) {
    if (other.CountOf(t) != c) {
      return false;
    }
  }
  return true;
}

Relation Relation::operator+(const Relation& other) const {
  Relation out = *this;
  out.Add(other);
  return out;
}

Relation Relation::operator-(const Relation& other) const {
  Relation out = *this;
  out.Add(other.Negated());
  return out;
}

std::string Relation::ToString() const {
  constexpr int64_t kMaxShownCopies = 32;
  std::ostringstream os;
  os << '(';
  bool first = true;
  for (const auto& [t, c] : SortedEntries()) {
    int64_t copies = std::min<int64_t>(std::abs(c), kMaxShownCopies);
    for (int64_t i = 0; i < copies; ++i) {
      if (!first) {
        os << ", ";
      }
      first = false;
      if (c < 0) {
        os << '-';
      }
      os << t;
    }
    if (std::abs(c) > kMaxShownCopies) {
      os << " x" << std::abs(c);
    }
  }
  os << ')';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Relation& r) {
  return os << r.ToString();
}

}  // namespace wvm
