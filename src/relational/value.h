#ifndef WVM_RELATIONAL_VALUE_H_
#define WVM_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <variant>

namespace wvm {

/// Column type of an attribute.
enum class ValueType {
  kInt,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

/// Nominal on-the-wire width in bytes of one value of `type`, used by the
/// byte-transfer cost meter (Section 6.2 of the paper measures B as tuple
/// count times projected-attribute size). Strings are charged per character
/// at evaluation time; this returns the fixed widths only.
int ValueTypeWidth(ValueType type);

/// A single typed attribute value. Values are totally ordered within a type
/// (cross-type comparison is a schema error caught at predicate bind time).
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  /// Convenience for string literals.
  explicit Value(const char* v) : data_(std::string(v)) {}

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kInt;
      case 1:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Nominal byte width of this value on the wire.
  int ByteWidth() const;

  /// Strict ordering; values of different types order by type tag. Used for
  /// canonical (deterministic) printing of relations.
  bool operator<(const Value& other) const { return data_ < other.data_; }
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Inline: this is the innermost operation of tuple hashing, which every
  /// join probe and relation insert performs.
  size_t Hash() const {
    switch (data_.index()) {
      case 0:
        return std::hash<int64_t>()(*std::get_if<int64_t>(&data_));
      case 1:
        return std::hash<double>()(*std::get_if<double>(&data_));
      default:
        return std::hash<std::string>()(*std::get_if<std::string>(&data_));
    }
  }

  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

/// Hash functor for unordered containers keyed by Value (e.g. the physical
/// evaluator's probed values of one join step).
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace wvm

#endif  // WVM_RELATIONAL_VALUE_H_
