#include "relational/tuple.h"

#include <ostream>
#include <sstream>

namespace wvm {

template <typename ValueAt>
Tuple Tuple::Build(size_t n, const ValueAt& value_at) {
  Tuple out;
  if (n == 0) {
    return out;
  }
  void* mem = ::operator new(sizeof(Row) + n * sizeof(Value));
  // `size` counts the values constructed so far, so if a value's copy
  // throws, `out` releases the row and destroys exactly those.
  out.row_ = new (mem) Row{{1}, 0, {kUnset}};
  Value* values = out.row_->values();
  for (size_t i = 0; i < n; ++i) {
    new (values + i) Value(value_at(i));
    ++out.row_->size;
  }
  return out;
}

void Tuple::Destroy(Row* row) noexcept {
  Value* values = row->values();
  for (uint32_t i = 0; i < row->size; ++i) {
    values[i].~Value();
  }
  row->~Row();
  ::operator delete(row);
}

Tuple::Tuple(std::vector<Value>&& values)
    : Tuple(Build(values.size(),
                  [&values](size_t i) -> Value&& {
                    return std::move(values[i]);
                  })) {}

Tuple::Tuple(std::span<const Value> values)
    : Tuple(Build(values.size(), [values](size_t i) -> const Value& {
        return values[i];
      })) {}

Tuple Tuple::Ints(std::initializer_list<int64_t> ints) {
  const int64_t* first = ints.begin();
  return Build(ints.size(), [first](size_t i) { return Value(first[i]); });
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  return Build(indices.size(), [this, &indices](size_t i) -> const Value& {
    return value(indices[i]);
  });
}

Tuple Tuple::Concat(const Tuple& other) const {
  const size_t n = size();
  Tuple out = Build(n + other.size(),
                    [this, &other, n](size_t i) -> const Value& {
                      return i < n ? value(i) : other.value(i - n);
                    });
  size_t h = row_ == nullptr ? kTupleHashSeed
                             : row_->hash.load(std::memory_order_relaxed);
  if (h != kUnset && out.row_ != nullptr) {
    for (const Value& v : other.values()) {
      h = TupleHashFold(h, v.Hash());
    }
    out.row_->hash.store(h, std::memory_order_relaxed);
  }
  return out;
}

Tuple Tuple::ConcatProjected(const Tuple& other,
                             const std::vector<size_t>& other_indices) const {
  const size_t n = size();
  Tuple out = Build(
      n + other_indices.size(),
      [this, &other, &other_indices, n](size_t i) -> const Value& {
        return i < n ? value(i) : other.value(other_indices[i - n]);
      });
  size_t h = row_ == nullptr ? kTupleHashSeed
                             : row_->hash.load(std::memory_order_relaxed);
  if (h != kUnset && out.row_ != nullptr) {
    for (size_t i : other_indices) {
      h = TupleHashFold(h, other.value(i).Hash());
    }
    out.row_->hash.store(h, std::memory_order_relaxed);
  }
  return out;
}

int Tuple::ByteWidth() const {
  int width = 0;
  for (const Value& v : values()) {
    width += v.ByteWidth();
  }
  return width;
}

size_t Tuple::ComputeHash() const {
  size_t h = kTupleHashSeed;
  for (const Value& v : values()) {
    h = TupleHashFold(h, v.Hash());
  }
  return h;
}

std::string Tuple::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Tuple& t) {
  os << '[';
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << t.value(i);
  }
  return os << ']';
}

}  // namespace wvm
