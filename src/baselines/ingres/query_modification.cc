#include "baselines/ingres/query_modification.h"

#include <algorithm>
#include <set>

#include "algebra/vectorized.h"

namespace viewauth {
namespace ingres {

Status IngresAuthorizer::AddPermission(Permission permission) {
  VIEWAUTH_ASSIGN_OR_RETURN(const RelationSchema* schema,
                            schema_->GetRelation(permission.relation));
  std::set<std::string> allowed(permission.columns.begin(),
                                permission.columns.end());
  for (const std::string& column : permission.columns) {
    if (schema->AttributeIndex(column) < 0) {
      return Status::NotFound("relation '" + permission.relation +
                              "' has no attribute '" + column + "'");
    }
  }
  for (const Condition& cond : permission.qualification) {
    auto check = [&](const AttributeRef& ref) -> Status {
      if (ref.relation != permission.relation || ref.occurrence != 1) {
        return Status::InvalidArgument(
            "INGRES qualifications may only reference the protected "
            "relation (single-relation permissions)");
      }
      if (schema->AttributeIndex(ref.attribute) < 0) {
        return Status::NotFound("relation '" + permission.relation +
                                "' has no attribute '" + ref.attribute +
                                "'");
      }
      return Status::OK();
    };
    VIEWAUTH_RETURN_NOT_OK(check(cond.lhs));
    if (cond.rhs.is_attribute) {
      VIEWAUTH_RETURN_NOT_OK(check(cond.rhs.attribute));
    }
  }
  permissions_.push_back(std::move(permission));
  return Status::OK();
}

Result<std::vector<ConjunctiveQuery>> IngresAuthorizer::Modify(
    const std::string& user, const std::vector<AttributeRef>& targets,
    const std::vector<Condition>& conditions) const {
  // Referenced attributes per relation occurrence.
  std::map<std::pair<std::string, int>, std::set<std::string>> referenced;
  auto note = [&referenced](const AttributeRef& ref) {
    referenced[{ref.relation, ref.occurrence}].insert(ref.attribute);
  };
  for (const AttributeRef& ref : targets) note(ref);
  for (const Condition& cond : conditions) {
    note(cond.lhs);
    if (cond.rhs.is_attribute) note(cond.rhs.attribute);
  }

  // Applicable permissions per occurrence: the permission's column set
  // must contain *every* referenced attribute (the all-or-nothing column
  // check the paper criticizes).
  std::vector<std::pair<std::pair<std::string, int>,
                        std::vector<const Permission*>>>
      choices;
  for (const auto& [occurrence, attrs] : referenced) {
    std::vector<const Permission*> applicable;
    for (const Permission& permission : permissions_) {
      if (permission.user != user ||
          permission.relation != occurrence.first) {
        continue;
      }
      std::set<std::string> allowed(permission.columns.begin(),
                                    permission.columns.end());
      bool covers = std::all_of(
          attrs.begin(), attrs.end(),
          [&allowed](const std::string& a) { return allowed.contains(a); });
      if (covers) applicable.push_back(&permission);
    }
    if (applicable.empty()) {
      return Status::PermissionDenied(
          "INGRES: no permission of user '" + user + "' on relation '" +
          occurrence.first +
          "' covers all addressed attributes (query rejected)");
    }
    choices.emplace_back(occurrence, std::move(applicable));
  }

  // One modified query per combination of applicable permissions.
  size_t combinations = 1;
  for (const auto& [occurrence, applicable] : choices) {
    (void)occurrence;
    combinations *= applicable.size();
    if (combinations > 64) {
      return Status::InvalidArgument(
          "INGRES: too many applicable permission combinations");
    }
  }

  std::vector<ConjunctiveQuery> modified;
  for (size_t index = 0; index < combinations; ++index) {
    std::vector<Condition> merged = conditions;
    size_t radix = index;
    for (const auto& [occurrence, applicable] : choices) {
      const Permission* chosen = applicable[radix % applicable.size()];
      radix /= applicable.size();
      for (Condition cond : chosen->qualification) {
        // Re-target the permission's occurrence-1 references onto this
        // occurrence of the relation.
        cond.lhs.occurrence = occurrence.second;
        if (cond.rhs.is_attribute) {
          cond.rhs.attribute.occurrence = occurrence.second;
        }
        merged.push_back(std::move(cond));
      }
    }
    VIEWAUTH_ASSIGN_OR_RETURN(
        ConjunctiveQuery query,
        ConjunctiveQuery::Build(*schema_, "ingres-modified", targets,
                                merged));
    modified.push_back(std::move(query));
  }
  return modified;
}

Result<Relation> IngresAuthorizer::Retrieve(
    const std::string& user, const std::vector<AttributeRef>& targets,
    const std::vector<Condition>& conditions,
    const DatabaseInstance& db) const {
  VIEWAUTH_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> modified,
                            Modify(user, targets, conditions));
  Relation result;
  bool first = true;
  for (const ConjunctiveQuery& query : modified) {
    VIEWAUTH_ASSIGN_OR_RETURN(Relation partial,
                              EvaluateVectorized(query, db, "ANSWER"));
    if (first) {
      result = std::move(partial);
      first = false;
    } else {
      for (const Tuple& row : partial) {
        result.InsertUnchecked(row);
      }
    }
  }
  return result;
}

}  // namespace ingres
}  // namespace viewauth
