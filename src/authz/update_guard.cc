#include "authz/update_guard.h"

#include "authz/authorizer.h"

namespace viewauth {

Result<Value> CoerceLiteral(const Value& literal, ValueType type) {
  if (!literal.is_null() && literal.is_string() && type != ValueType::kString) {
    return ParseValueAs(literal.string_value(), type);
  }
  return literal;
}

Tuple ResolvedWrite::Apply(const Tuple& row) const {
  Tuple updated = row;
  for (const auto& [index, value] : assignments) updated.at(index) = value;
  return updated;
}

Result<ResolvedWrite> ResolveWrite(
    std::string_view verb, std::string_view relation,
    const RelationSchema& schema,
    const std::vector<ModifyStmt::Assignment>& assignments,
    const std::vector<Condition>& conditions) {
  auto index_of = [&](const std::string& attribute) -> Result<int> {
    const int index = schema.AttributeIndex(attribute);
    if (index < 0) {
      return Status::NotFound("relation '" + std::string(relation) +
                              "' has no attribute '" + attribute + "'");
    }
    return index;
  };
  ResolvedWrite write;
  for (const ModifyStmt::Assignment& assignment : assignments) {
    VIEWAUTH_ASSIGN_OR_RETURN(int index, index_of(assignment.attribute));
    VIEWAUTH_ASSIGN_OR_RETURN(
        Value value,
        CoerceLiteral(assignment.value, schema.attribute(index).type));
    write.touched_columns.insert(index);
    write.assignments.emplace_back(index, std::move(value));
  }
  // Conditions resolve against occurrence 1 of the target relation only.
  auto resolve = [&](const AttributeRef& ref) -> Result<int> {
    if (ref.relation != relation || ref.occurrence != 1) {
      return Status::InvalidArgument(
          std::string(verb) +
          " predicates may only reference the target relation");
    }
    VIEWAUTH_ASSIGN_OR_RETURN(int index, index_of(ref.attribute));
    write.touched_columns.insert(index);
    return index;
  };
  for (const Condition& cond : conditions) {
    VIEWAUTH_ASSIGN_OR_RETURN(int lhs, resolve(cond.lhs));
    if (cond.rhs.is_attribute) {
      VIEWAUTH_ASSIGN_OR_RETURN(int rhs, resolve(cond.rhs.attribute));
      write.predicate.Add(SelectionAtom::ColumnColumn(lhs, cond.op, rhs));
    } else {
      write.predicate.Add(
          SelectionAtom::ColumnConst(lhs, cond.op, cond.rhs.constant));
    }
  }
  return write;
}

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
  VIEWAUTH_ASSIGN_OR_RETURN(
      ResolvedWrite write,
      ResolveWrite("delete", relation, rel->schema(), {}, conditions));

  // Delete views whose projection covers the predicate's attributes.
  std::vector<const MetaTuple*> windows;
  for (const ViewDefinition* view :
       SingleRelationViews(user, relation, AccessMode::kDelete)) {
    const MetaTuple& meta = view->tuples[0];
    bool covers = true;
    for (int column : write.touched_columns) {
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
    if (!write.predicate.Matches(row)) continue;
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
  VIEWAUTH_ASSIGN_OR_RETURN(
      ResolvedWrite write, ResolveWrite("modify", relation, rel->schema(),
                                        assignments, conditions));

  // Modify views covering every touched attribute.
  std::vector<const MetaTuple*> windows;
  for (const ViewDefinition* view :
       SingleRelationViews(user, relation, AccessMode::kModify)) {
    const MetaTuple& meta = view->tuples[0];
    bool covers = true;
    for (int column : write.touched_columns) {
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
    if (!write.predicate.Matches(row)) continue;
    Tuple updated = write.Apply(row);
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
