// UpdateGuard: authorization of insert and delete operations (the
// paper's conclusion (1): "We see no difficulty in extending it to
// incorporate update permissions, such as insert, delete and modify").
//
// Update permissions are views granted with an update mode. The checks:
//   * INSERT t INTO R is permitted when some insert-mode view of the
//     user, defined over R alone, projects *every* attribute of R (the
//     user writes whole rows) and t satisfies the view's selection (the
//     row lies inside the user's window).
//   * DELETE FROM R WHERE p removes the matching rows that fall inside
//     some delete-mode view's selection; other matching rows are
//     withheld, mirroring the retrieval model's partial delivery. The
//     predicate's attributes must be projected by the authorizing view,
//     otherwise the deletion outcome would leak values the view hides.
//
// View-update *propagation* (updating base relations through views) is
// undecidable in general — the paper's own footnote — and is out of
// scope: updates here address base relations directly, like queries do.

#ifndef VIEWAUTH_AUTHZ_UPDATE_GUARD_H_
#define VIEWAUTH_AUTHZ_UPDATE_GUARD_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "meta/view_store.h"
#include "parser/ast.h"
#include "predicate/predicate.h"
#include "storage/relation.h"

namespace viewauth {

// Coerces a parsed literal toward an attribute type: bare identifiers
// arrive as strings, and a non-string attribute re-parses them.
Result<Value> CoerceLiteral(const Value& literal, ValueType type);

// A delete or modify statement resolved against its one target relation.
struct ResolvedWrite {
  // The WHERE clause over the relation's columns.
  ConjunctivePredicate predicate;
  // The SET list (modify only): column index and coerced value.
  std::vector<std::pair<int, Value>> assignments;
  // Every column the predicate or an assignment mentions.
  std::set<int> touched_columns;

  // `row` with the assignments applied.
  Tuple Apply(const Tuple& row) const;
};

// Resolves `assignments` (empty for a delete) and then `conditions`
// against `schema`, the schema of `relation`; administrative and guarded
// writes share it. `verb` ("delete" or "modify") names the statement in
// the errors: InvalidArgument for a condition on another relation or
// occurrence, NotFound for an unknown attribute.
Result<ResolvedWrite> ResolveWrite(
    std::string_view verb, std::string_view relation,
    const RelationSchema& schema,
    const std::vector<ModifyStmt::Assignment>& assignments,
    const std::vector<Condition>& conditions);

class UpdateGuard {
 public:
  UpdateGuard(const DatabaseInstance* db, const ViewCatalog* catalog)
      : db_(db), catalog_(catalog) {}

  // Is `user` entitled to insert `tuple` into `relation`?
  Status CheckInsert(std::string_view user, std::string_view relation,
                     const Tuple& tuple) const;

  struct DeleteDecision {
    // Rows the user may delete (they also match the predicate).
    std::vector<Tuple> deletable;
    // Matching rows withheld for lack of a covering delete view.
    int withheld = 0;
  };

  // Splits the rows of `relation` matching `conditions` into deletable
  // and withheld. Fails when the predicate addresses attributes no
  // delete-mode view of the user projects.
  Result<DeleteDecision> AuthorizeDelete(
      std::string_view user, std::string_view relation,
      const std::vector<Condition>& conditions) const;

  struct ModifyDecision {
    // Pairs of (old row, new row) the user may apply.
    std::vector<std::pair<Tuple, Tuple>> changes;
    // Matching rows withheld for lack of a covering modify view.
    int withheld = 0;
  };

  // MODIFY R SET A = v WHERE p: a matching row may change when some
  // modify-mode view (a) projects the assigned attributes and the
  // predicate's attributes, and (b) is satisfied by BOTH the old and the
  // new row — updates may not move rows into or out of the user's
  // window. Returns the permitted changes; the caller applies them.
  Result<ModifyDecision> AuthorizeModify(
      std::string_view user, std::string_view relation,
      const std::vector<ModifyStmt::Assignment>& assignments,
      const std::vector<Condition>& conditions) const;

 private:
  // The user's update-mode views defined over `relation` alone.
  std::vector<const ViewDefinition*> SingleRelationViews(
      std::string_view user, std::string_view relation,
      AccessMode mode) const;

  const DatabaseInstance* db_;
  const ViewCatalog* catalog_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_UPDATE_GUARD_H_
