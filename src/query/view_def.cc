#include "query/view_def.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/strings.h"
#include "query/compiled_plan.h"

namespace wvm {

namespace {

// How many base relations declare an attribute called `name`.
int NameCount(const std::vector<BaseRelationDef>& relations,
              const std::string& name) {
  int count = 0;
  for (const BaseRelationDef& r : relations) {
    if (r.schema.IndexOf(name).has_value()) {
      ++count;
    }
  }
  return count;
}

// Combined-schema name of relation `rel`'s attribute `attr`: bare when the
// bare name is unique across the view's base relations, "rel.attr" otherwise.
std::string QualifiedName(const std::vector<BaseRelationDef>& relations,
                          const std::string& rel, const std::string& attr) {
  return NameCount(relations, attr) > 1 ? StrCat(rel, ".", attr) : attr;
}

}  // namespace

Result<std::shared_ptr<const ViewDefinition>> ViewDefinition::Create(
    std::string name, std::vector<BaseRelationDef> relations,
    std::vector<std::string> projection, Predicate cond) {
  SchemaConstraints derived = SchemaConstraints::FromSchemas(relations);
  return Create(std::move(name), std::move(relations), std::move(projection),
                std::move(cond), std::move(derived));
}

Result<std::shared_ptr<const ViewDefinition>> ViewDefinition::Create(
    std::string name, std::vector<BaseRelationDef> relations,
    std::vector<std::string> projection, Predicate cond,
    SchemaConstraints constraints) {
  if (relations.empty()) {
    return Status::InvalidArgument("view must have at least one relation");
  }
  if (relations.size() > kMaxRelations) {
    return Status::InvalidArgument(
        StrCat("view ", name, " joins ", relations.size(),
               " relations; at most ", kMaxRelations, " are supported"));
  }
  std::set<std::string> seen;
  for (const BaseRelationDef& r : relations) {
    if (!seen.insert(r.name).second) {
      return Status::InvalidArgument(
          StrCat("duplicate base relation '", r.name,
                 "'; the paper assumes distinct relations (Section 4)"));
    }
    if (r.schema.size() == 0) {
      return Status::InvalidArgument(
          StrCat("base relation '", r.name, "' has an empty schema"));
    }
  }

  WVM_RETURN_IF_ERROR(constraints.Validate(relations));

  auto view = std::shared_ptr<ViewDefinition>(new ViewDefinition());
  view->name_ = std::move(name);
  view->relations_ = std::move(relations);
  view->cond_ = std::move(cond);
  view->constraints_ =
      std::make_shared<const SchemaConstraints>(std::move(constraints));

  // Combined schema with collision-qualified names.
  std::vector<Attribute> combined;
  for (const BaseRelationDef& r : view->relations_) {
    view->relation_offsets_.push_back(combined.size());
    for (const Attribute& a : r.schema.attributes()) {
      Attribute qualified = a;
      qualified.name = QualifiedName(view->relations_, r.name, a.name);
      combined.push_back(std::move(qualified));
    }
  }
  view->combined_schema_ = Schema(std::move(combined));

  // Resolve projection.
  WVM_ASSIGN_OR_RETURN(view->projection_indices_,
                       view->combined_schema_.IndicesOf(projection));
  view->output_schema_ =
      view->combined_schema_.Project(view->projection_indices_);

  // Bind the condition.
  WVM_ASSIGN_OR_RETURN(view->bound_cond_,
                       view->cond_.Bind(view->combined_schema_));

  // Key coverage (applicability of ECA-Key / view-side key-deletes): every
  // base relation has a declared key whose attributes all survive the
  // projection.
  view->keys_projected_ = true;
  for (size_t ri = 0; ri < view->relations_.size(); ++ri) {
    const BaseRelationDef& r = view->relations_[ri];
    const KeySpec* key = view->constraints_->KeyOf(r.name);
    if (key == nullptr) {
      view->keys_projected_ = false;
      continue;
    }
    for (const std::string& attr : key->attrs) {
      std::optional<size_t> in_schema = r.schema.IndexOf(attr);
      size_t combined_index = view->relation_offsets_[ri] + *in_schema;
      bool projected =
          std::find(view->projection_indices_.begin(),
                    view->projection_indices_.end(),
                    combined_index) != view->projection_indices_.end();
      if (!projected) {
        view->keys_projected_ = false;
      }
    }
  }

  // Equi-join edges from top-level conjuncts of the form attr = attr.
  // Conjuncts that do not become an edge spanning two different base
  // relations accumulate into the residual condition, which join-based
  // evaluators apply after enforcing every edge during the joins.
  const auto relation_of_column = [&view](size_t col) {
    size_t r = 0;
    while (r + 1 < view->relation_offsets_.size() &&
           view->relation_offsets_[r + 1] <= col) {
      ++r;
    }
    return r;
  };
  for (const Predicate& conjunct : view->cond_.TopLevelConjuncts()) {
    std::optional<Predicate::ComparisonLeaf> leaf = conjunct.AsComparison();
    bool spanning_edge = false;
    if (leaf.has_value() && leaf->op == CompareOp::kEq &&
        leaf->lhs.is_attr() && leaf->rhs.is_attr()) {
      std::optional<size_t> l =
          view->combined_schema_.IndexOf(leaf->lhs.attr_name());
      std::optional<size_t> r =
          view->combined_schema_.IndexOf(leaf->rhs.attr_name());
      if (l.has_value() && r.has_value() && *l != *r) {
        view->equi_edges_.push_back(EquiEdge{*l, *r});
        spanning_edge = relation_of_column(*l) != relation_of_column(*r);
      }
    }
    if (!spanning_edge) {
      view->residual_cond_ = view->residual_cond_.IsTrue()
                                 ? conjunct
                                 : Predicate::And(
                                       std::move(view->residual_cond_),
                                       conjunct);
    }
  }

  // Canonical structure rendering (everything but the view's name): base
  // relation names + schemas fix the operand spaces, projection indices and
  // the condition fix the function computed over them.
  {
    std::string key;
    for (const BaseRelationDef& r : view->relations_) {
      key += StrCat(r.name, ":", r.schema.ToString(), "|");
    }
    key += "pi:";
    for (size_t i : view->projection_indices_) {
      key += StrCat(i, ",");
    }
    key += StrCat("|sigma:", view->cond_.ToString());
    view->structure_key_ = std::move(key);
  }

  // Pre-warm the plan cache: the full-view plan (initial materialization)
  // and one single-substitution plan per relation (the shapes every delta
  // query produced by Term::Substitute takes).
  WVM_RETURN_IF_ERROR(view->CompiledPlanFor(0).status());
  for (size_t i = 0; i < view->relations_.size(); ++i) {
    WVM_RETURN_IF_ERROR(view->CompiledPlanFor(uint64_t{1} << i).status());
  }

  return std::shared_ptr<const ViewDefinition>(std::move(view));
}

Result<std::shared_ptr<const CompiledDeltaPlan>> ViewDefinition::CompiledPlanFor(
    uint64_t bound_mask) const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto it = plan_cache_.find(bound_mask);
  if (it != plan_cache_.end()) {
    return it->second;
  }
  WVM_ASSIGN_OR_RETURN(CompiledDeltaPlan plan,
                       CompiledDeltaPlan::Compile(*this, bound_mask));
  auto shared = std::make_shared<const CompiledDeltaPlan>(std::move(plan));
  plan_cache_.emplace(bound_mask, shared);
  return shared;
}

bool ViewDefinition::HasCompiledPlanFor(uint64_t bound_mask) const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  return plan_cache_.count(bound_mask) > 0;
}

Result<std::shared_ptr<const ViewDefinition>> ViewDefinition::NaturalJoin(
    std::string name, std::vector<BaseRelationDef> relations,
    std::vector<std::string> projection, Predicate extra_cond) {
  SchemaConstraints derived = SchemaConstraints::FromSchemas(relations);
  return NaturalJoin(std::move(name), std::move(relations),
                     std::move(projection), std::move(extra_cond),
                     std::move(derived));
}

Result<std::shared_ptr<const ViewDefinition>> ViewDefinition::NaturalJoin(
    std::string name, std::vector<BaseRelationDef> relations,
    std::vector<std::string> projection, Predicate extra_cond,
    SchemaConstraints constraints) {
  // Gather every attribute name and the relations that declare it.
  std::map<std::string, std::vector<std::string>> owners;  // attr -> rels
  for (const BaseRelationDef& r : relations) {
    for (const Attribute& a : r.schema.attributes()) {
      owners[a.name].push_back(r.name);
    }
  }

  // Equality conditions between consecutive occurrences of shared names.
  Predicate cond = std::move(extra_cond);
  for (const auto& [attr, rels] : owners) {
    for (size_t i = 1; i < rels.size(); ++i) {
      cond = Predicate::And(
          std::move(cond),
          Predicate::AttrCompare(StrCat(rels[i - 1], ".", attr),
                                 CompareOp::kEq,
                                 StrCat(rels[i], ".", attr)));
    }
  }

  // A bare projected name that is shared resolves to its first occurrence
  // (all occurrences are equal under the join condition anyway).
  for (std::string& p : projection) {
    auto it = owners.find(p);
    if (it != owners.end() && it->second.size() > 1) {
      p = StrCat(it->second.front(), ".", p);
    }
  }

  return Create(std::move(name), std::move(relations), std::move(projection),
                std::move(cond), std::move(constraints));
}

Result<size_t> ViewDefinition::RelationIndex(const std::string& name) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name == name) {
      return i;
    }
  }
  return Status::NotFound(
      StrCat("relation '", name, "' not part of view ", name_));
}

Result<std::vector<std::pair<size_t, Value>>> ViewDefinition::KeyConstraintsFor(
    const Update& u) const {
  WVM_ASSIGN_OR_RETURN(size_t ri, RelationIndex(u.relation));
  const BaseRelationDef& rel = relations_[ri];
  if (u.tuple.size() != rel.schema.size()) {
    return Status::InvalidArgument(
        StrCat("update tuple ", u.tuple.ToString(), " has arity ",
               u.tuple.size(), ", relation ", rel.name, " expects ",
               rel.schema.size()));
  }
  const KeySpec* key = constraints_->KeyOf(rel.name);
  if (key == nullptr) {
    return Status::FailedPrecondition(
        StrCat("relation ", rel.name,
               " has no declared key; ECA-Key inapplicable"));
  }
  std::vector<std::pair<size_t, Value>> constraints;
  for (const std::string& attr : key->attrs) {
    std::optional<size_t> a = rel.schema.IndexOf(attr);
    size_t combined_index = relation_offsets_[ri] + *a;
    auto it = std::find(projection_indices_.begin(),
                        projection_indices_.end(), combined_index);
    if (it == projection_indices_.end()) {
      return Status::FailedPrecondition(
          StrCat("key attribute '", attr, "' of relation ", rel.name,
                 " is not in the view projection; ECA-Key inapplicable"));
    }
    size_t output_column =
        static_cast<size_t>(it - projection_indices_.begin());
    constraints.emplace_back(output_column, u.tuple.value(*a));
  }
  return constraints;
}

Result<size_t> ViewDefinition::CombinedIndexOf(const std::string& relation,
                                               const std::string& attr) const {
  WVM_ASSIGN_OR_RETURN(size_t ri, RelationIndex(relation));
  std::optional<size_t> a = relations_[ri].schema.IndexOf(attr);
  if (!a.has_value()) {
    return Status::NotFound(
        StrCat("attribute '", attr, "' not in relation '", relation, "'"));
  }
  return relation_offsets_[ri] + *a;
}

std::string ViewDefinition::ToString() const {
  std::vector<std::string> proj_names;
  for (size_t i : projection_indices_) {
    proj_names.push_back(combined_schema_.attribute(i).name);
  }
  std::vector<std::string> rel_names;
  for (const BaseRelationDef& r : relations_) {
    rel_names.push_back(r.name);
  }
  return StrCat(name_, " = pi_{", Join(proj_names, ","), "}(sigma_{",
                cond_.ToString(), "}(", Join(rel_names, " x "), "))");
}

}  // namespace wvm
