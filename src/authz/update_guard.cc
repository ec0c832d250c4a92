#include "authz/update_guard.h"

#include <set>

#include "authz/authorizer.h"
#include "predicate/predicate.h"

namespace viewauth {

std::vector<const ViewDefinition*> UpdateGuard::SingleRelationViews(
    std::string_view user, std::string_view relation,
    AccessMode mode) const {
  std::vector<const ViewDefinition*> result;
  for (const ViewDefinition* view : catalog_->PermittedViews(user, mode)) {
    if (view->tuples.size() == 1 && view->tuple_relations[0] == relation) {
      result.push_back(view);
    }
  }
  return result;
}

Status UpdateGuard::CheckInsert(std::string_view user,
                                std::string_view relation,
                                const Tuple& tuple) const {
  VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel,
                            db_->GetRelation(relation));
  if (tuple.arity() != rel->schema().arity()) {
    return Status::SchemaMismatch("insert tuple arity mismatch");
  }
  for (const ViewDefinition* view :
       SingleRelationViews(user, relation, AccessMode::kInsert)) {
    const MetaTuple& meta = view->tuples[0];
    // The user writes whole rows: the view must expose every attribute.
    bool full_width = true;
    for (const MetaCell& cell : meta.cells()) {
      if (!cell.projected) {
        full_width = false;
        break;
      }
    }
    if (!full_width) continue;
    if (Authorizer::RowSatisfies(meta, tuple)) return Status::OK();
  }
  return Status::PermissionDenied(
      "user '" + std::string(user) + "' holds no insert permission of '" +
      std::string(relation) + "' covering this tuple");
}

Result<UpdateGuard::DeleteDecision> UpdateGuard::AuthorizeDelete(
    std::string_view user, std::string_view relation,
    const std::vector<Condition>& conditions) const {
  VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel,
                            db_->GetRelation(relation));
  const RelationSchema& schema = rel->schema();

  // Resolve the predicate against the relation (occurrence 1 only).
  ConjunctivePredicate predicate;
  std::set<int> predicate_columns;
  for (const Condition& cond : conditions) {
    auto resolve = [&](const AttributeRef& ref) -> Result<int> {
      if (ref.relation != relation || ref.occurrence != 1) {
        return Status::InvalidArgument(
            "delete predicates may only reference the target relation");
      }
      int index = schema.AttributeIndex(ref.attribute);
      if (index < 0) {
        return Status::NotFound("relation '" + std::string(relation) +
                                "' has no attribute '" + ref.attribute +
                                "'");
      }
      return index;
    };
    VIEWAUTH_ASSIGN_OR_RETURN(int lhs, resolve(cond.lhs));
    predicate_columns.insert(lhs);
    if (cond.rhs.is_attribute) {
      VIEWAUTH_ASSIGN_OR_RETURN(int rhs, resolve(cond.rhs.attribute));
      predicate_columns.insert(rhs);
      predicate.Add(SelectionAtom::ColumnColumn(lhs, cond.op, rhs));
    } else {
      predicate.Add(SelectionAtom::ColumnConst(lhs, cond.op,
                                               cond.rhs.constant));
    }
  }

  // Delete views whose projection covers the predicate's attributes.
  std::vector<const MetaTuple*> windows;
  for (const ViewDefinition* view :
       SingleRelationViews(user, relation, AccessMode::kDelete)) {
    const MetaTuple& meta = view->tuples[0];
    bool covers = true;
    for (int column : predicate_columns) {
      if (!meta.cells()[column].projected) {
        covers = false;
        break;
      }
    }
    if (covers) windows.push_back(&meta);
  }
  if (windows.empty() && !conditions.empty()) {
    return Status::PermissionDenied(
        "user '" + std::string(user) +
        "' holds no delete permission of '" + std::string(relation) +
        "' covering the predicate's attributes");
  }

  DeleteDecision decision;
  for (const Tuple& row : *rel) {
    if (!predicate.Matches(row)) continue;
    bool allowed = false;
    for (const MetaTuple* window : windows) {
      if (Authorizer::RowSatisfies(*window, row)) {
        allowed = true;
        break;
      }
    }
    // An unconditional delete (no predicate) still needs a window per
    // row even without predicate-coverage filtering.
    if (!allowed && conditions.empty()) {
      for (const ViewDefinition* view :
           SingleRelationViews(user, relation, AccessMode::kDelete)) {
        if (Authorizer::RowSatisfies(view->tuples[0], row)) {
          allowed = true;
          break;
        }
      }
    }
    if (allowed) {
      decision.deletable.push_back(row);
    } else {
      ++decision.withheld;
    }
  }
  return decision;
}

Result<UpdateGuard::ModifyDecision> UpdateGuard::AuthorizeModify(
    std::string_view user, std::string_view relation,
    const std::vector<ModifyStmt::Assignment>& assignments,
    const std::vector<Condition>& conditions) const {
  VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel,
                            db_->GetRelation(relation));
  const RelationSchema& schema = rel->schema();

  // Resolve assignments (with literal coercion toward attribute types).
  std::vector<std::pair<int, Value>> resolved;
  std::set<int> touched_columns;
  for (const ModifyStmt::Assignment& assignment : assignments) {
    int index = schema.AttributeIndex(assignment.attribute);
    if (index < 0) {
      return Status::NotFound("relation '" + std::string(relation) +
                              "' has no attribute '" +
                              assignment.attribute + "'");
    }
    Value value = assignment.value;
    const ValueType expected = schema.attribute(index).type;
    if (!value.is_null() && value.is_string() &&
        expected != ValueType::kString) {
      VIEWAUTH_ASSIGN_OR_RETURN(value,
                                ParseValueAs(value.string_value(), expected));
    }
    touched_columns.insert(index);
    resolved.emplace_back(index, std::move(value));
  }

  // Resolve the predicate.
  ConjunctivePredicate predicate;
  for (const Condition& cond : conditions) {
    auto resolve = [&](const AttributeRef& ref) -> Result<int> {
      if (ref.relation != relation || ref.occurrence != 1) {
        return Status::InvalidArgument(
            "modify predicates may only reference the target relation");
      }
      int index = schema.AttributeIndex(ref.attribute);
      if (index < 0) {
        return Status::NotFound("relation '" + std::string(relation) +
                                "' has no attribute '" + ref.attribute +
                                "'");
      }
      return index;
    };
    VIEWAUTH_ASSIGN_OR_RETURN(int lhs, resolve(cond.lhs));
    touched_columns.insert(lhs);
    if (cond.rhs.is_attribute) {
      VIEWAUTH_ASSIGN_OR_RETURN(int rhs, resolve(cond.rhs.attribute));
      touched_columns.insert(rhs);
      predicate.Add(SelectionAtom::ColumnColumn(lhs, cond.op, rhs));
    } else {
      predicate.Add(
          SelectionAtom::ColumnConst(lhs, cond.op, cond.rhs.constant));
    }
  }

  // Modify views covering every touched attribute.
  std::vector<const MetaTuple*> windows;
  for (const ViewDefinition* view :
       SingleRelationViews(user, relation, AccessMode::kModify)) {
    const MetaTuple& meta = view->tuples[0];
    bool covers = true;
    for (int column : touched_columns) {
      if (!meta.cells()[column].projected) {
        covers = false;
        break;
      }
    }
    if (covers) windows.push_back(&meta);
  }
  if (windows.empty()) {
    return Status::PermissionDenied(
        "user '" + std::string(user) +
        "' holds no modify permission of '" + std::string(relation) +
        "' covering the touched attributes");
  }

  ModifyDecision decision;
  for (const Tuple& row : *rel) {
    if (!predicate.Matches(row)) continue;
    Tuple updated = row;
    for (const auto& [index, value] : resolved) {
      updated.at(index) = value;
    }
    if (updated == row) continue;  // no-op change
    bool allowed = false;
    for (const MetaTuple* window : windows) {
      if (Authorizer::RowSatisfies(*window, row) &&
          Authorizer::RowSatisfies(*window, updated)) {
        allowed = true;
        break;
      }
    }
    if (allowed) {
      decision.changes.emplace_back(row, std::move(updated));
    } else {
      ++decision.withheld;
    }
  }
  return decision;
}

}  // namespace viewauth
