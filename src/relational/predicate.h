#ifndef WVM_RELATIONAL_PREDICATE_H_
#define WVM_RELATIONAL_PREDICATE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace wvm {

namespace internal_predicate {
struct PredNode;
struct BoundNode;
}  // namespace internal_predicate

/// Comparison operator of a predicate leaf.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);

/// Evaluates `lhs op rhs` with exactly the semantics of a bound predicate's
/// comparison leaf. Exposed so compiled plans' fused residual conjuncts are
/// semantically identical to the BoundPredicate walk by construction.
bool EvalCompareOp(const Value& lhs, CompareOp op, const Value& rhs);

/// One side of a comparison: either a named attribute or a constant.
class Operand {
 public:
  static Operand Attr(std::string name);
  static Operand Const(Value v);
  /// Shorthand for integer constants.
  static Operand ConstInt(int64_t v) { return Const(Value(v)); }

  bool is_attr() const { return is_attr_; }
  const std::string& attr_name() const { return attr_name_; }
  const Value& constant() const { return constant_; }

  std::string ToString() const;

 private:
  bool is_attr_ = false;
  std::string attr_name_;
  Value constant_;
};

/// A predicate bound to a concrete schema; evaluates on tuples of that
/// schema with no name lookups. Produced by Predicate::Bind.
class BoundPredicate {
 public:
  /// Always-true predicate.
  BoundPredicate() = default;

  /// True iff this is the trivially-true predicate (selection is identity).
  bool IsTrue() const { return root_ == nullptr; }

  bool Eval(const Tuple& tuple) const;

 private:
  friend class Predicate;
  std::shared_ptr<const internal_predicate::BoundNode> root_;  // null = true
};

/// The selection condition `cond` of a view definition (Section 4): a boolean
/// combination of comparisons between attributes and/or constants, referenced
/// by attribute name. Immutable; cheap to copy (shared tree).
class Predicate {
 public:
  /// The trivially-true condition (a pure join view).
  Predicate() = default;

  static Predicate True() { return Predicate(); }
  static Predicate Compare(Operand lhs, CompareOp op, Operand rhs);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);

  /// Shorthand for the common attr-vs-attr comparison, e.g. W > Z.
  static Predicate AttrCompare(const std::string& lhs, CompareOp op,
                               const std::string& rhs) {
    return Compare(Operand::Attr(lhs), op, Operand::Attr(rhs));
  }

  bool IsTrue() const { return root_ == nullptr; }

  /// If this predicate is a single comparison leaf, returns its parts.
  struct ComparisonLeaf {
    Operand lhs;
    CompareOp op;
    Operand rhs;
  };
  std::optional<ComparisonLeaf> AsComparison() const;

  /// Splits a top-level conjunction into its conjuncts (a non-AND predicate
  /// is its own single conjunct; TRUE yields no conjuncts). Used by
  /// evaluators to extract equi-join edges.
  std::vector<Predicate> TopLevelConjuncts() const;

  /// Resolves attribute names against `schema` and type-checks comparisons.
  Result<BoundPredicate> Bind(const Schema& schema) const;

  /// All attribute names referenced anywhere in the tree (with duplicates
  /// removed, in first-mention order).
  std::vector<std::string> ReferencedAttributes() const;

  std::string ToString() const;

 private:
  explicit Predicate(std::shared_ptr<const internal_predicate::PredNode> root)
      : root_(std::move(root)) {}

  std::shared_ptr<const internal_predicate::PredNode> root_;  // null = true
};

}  // namespace wvm

#endif  // WVM_RELATIONAL_PREDICATE_H_
