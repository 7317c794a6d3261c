#ifndef WVM_QUERY_COMPOSITE_VIEW_H_
#define WVM_QUERY_COMPOSITE_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/catalog.h"
#include "query/view_def.h"

namespace wvm {

/// A view defined by a signed combination of SPJ branches,
///
///     V = +B1 + B2 - B3 ...
///
/// realizing the "union and/or difference" extension Section 7 lists as
/// future work. With Z-relation semantics, `+` is bag union (UNION ALL)
/// and `-` is pointwise multiplicity subtraction (the bag EXCEPT ALL,
/// without truncation at zero — a composite whose value would go negative
/// somewhere is simply a view that carries signed counts, and the checker
/// compares those exactly).
///
/// Because evaluation is multilinear in every base relation occurrence,
/// the whole ECA machinery carries over branch-wise: V<U> is the signed
/// sum of the branches' substitutions, and compensation subtracts pending
/// queries' substitutions exactly as in the single-branch case.
///
/// Branches may reference different base relations; their output schemas
/// must be union-compatible (same arity and column types). A relation may
/// appear in several branches (each occurrence is substituted
/// independently, which is the standard treatment the paper sketches for
/// repeated relations in Section 4).
struct CompositeBranch {
  ViewDefinitionPtr view;
  int sign = +1;
};

class CompositeView {
 public:
  static Result<std::shared_ptr<const CompositeView>> Create(
      std::string name, std::vector<CompositeBranch> branches);

  const std::string& name() const { return name_; }
  const std::vector<CompositeBranch>& branches() const { return branches_; }
  /// The (union-compatible) output schema, taken from the first branch.
  const Schema& output_schema() const { return output_schema_; }

  /// True if any branch references `relation`.
  bool References(const std::string& relation) const;

  /// Evaluates the signed sum of branches over `catalog`.
  Result<Relation> Evaluate(const Catalog& catalog) const;

  /// V<u>: the change update `u` makes to the view, the signed sum of the
  /// branches' substitutions evaluated over `catalog` (a branch that does
  /// not mention u's relation drops out). A branch mentions each relation
  /// at most once, so its substituted term never reads u's relation and
  /// the result is the same whether or not `catalog` already reflects u.
  Result<Relation> Delta(const Update& u, const Catalog& catalog) const;

  std::string ToString() const;

 private:
  CompositeView() = default;

  std::string name_;
  std::vector<CompositeBranch> branches_;
  Schema output_schema_;
};

using CompositeViewPtr = std::shared_ptr<const CompositeView>;

}  // namespace wvm

#endif  // WVM_QUERY_COMPOSITE_VIEW_H_
