// ConjunctiveQuery: the internal, schema-validated form of the paper's
// conjunctive relational calculus expressions (Section 2).
//
// A conjunctive expression
//   { a_1..a_n | (exists b_1..b_k)  psi_1 and ... and psi_m }
// is represented as:
//   * an ordered list of membership atoms (relation occurrences) — the
//     product part of the equivalent product/selection/projection algebra
//     expression,
//   * a target list of column references into those atoms (the a's),
//   * a conjunction of comparative conditions over column references and
//     constants.
// Variables that appear in several membership atoms surface here as
// equality conditions between columns; the meta encoder re-derives shared
// variables from them.

#ifndef VIEWAUTH_CALCULUS_CONJUNCTIVE_QUERY_H_
#define VIEWAUTH_CALCULUS_CONJUNCTIVE_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "parser/ast.h"
#include "schema/schema.h"

namespace viewauth {

// A reference to one attribute of one membership atom.
struct ColumnRef {
  int atom = 0;  // index into ConjunctiveQuery::atoms()
  int attr = 0;  // attribute index within the atom's relation scheme

  bool operator==(const ColumnRef& other) const {
    return atom == other.atom && attr == other.attr;
  }
  bool operator<(const ColumnRef& other) const {
    return atom != other.atom ? atom < other.atom : attr < other.attr;
  }
};

// One membership atom: the `occurrence`'th use of `relation`.
struct MembershipAtom {
  std::string relation;
  int occurrence = 1;
};

// One comparative condition over columns/constants.
struct CalculusCondition {
  ColumnRef lhs;
  Comparator op = Comparator::kEq;
  bool rhs_is_column = false;
  ColumnRef rhs_column;
  Value rhs_const;
};

class ConjunctiveQuery {
 public:
  // Builds and validates a query from parsed targets/conditions against
  // the database scheme. `name` labels error messages ("view ELP",
  // "retrieve").
  static Result<ConjunctiveQuery> Build(
      const DatabaseSchema& schema, std::string name,
      const std::vector<AttributeRef>& targets,
      const std::vector<Condition>& conditions);

  static Result<ConjunctiveQuery> FromView(const DatabaseSchema& schema,
                                           const ViewStmt& stmt) {
    return Build(schema, "view " + stmt.name, stmt.targets, stmt.conditions);
  }
  static Result<ConjunctiveQuery> FromRetrieve(const DatabaseSchema& schema,
                                               const RetrieveStmt& stmt) {
    return Build(schema, "retrieve", stmt.targets, stmt.conditions);
  }

  const std::string& name() const { return name_; }
  const std::vector<MembershipAtom>& atoms() const { return atoms_; }
  const std::vector<ColumnRef>& targets() const { return targets_; }
  const std::vector<CalculusCondition>& conditions() const {
    return conditions_;
  }

  // The relation scheme of each atom. Schemas are captured by value at
  // Build time, so a ConjunctiveQuery (and everything compiled from it,
  // like stored views) stays valid even if the catalog's relation is
  // later dropped or the schema object moves.
  const RelationSchema& atom_schema(int atom) const {
    return atom_schemas_.at(static_cast<size_t>(atom));
  }

  // Flat column index of `ref` in the product of all atoms (atoms
  // concatenated in order).
  int FlatIndex(const ColumnRef& ref) const;
  // Total number of columns in the product of all atoms.
  int TotalColumns() const;
  // Name of a flat product column, qualified when ambiguous
  // ("NAME" or "EMPLOYEE:2.NAME").
  std::vector<std::string> ProductColumnNames() const;

  // Output (answer) column names and types, in target order. Duplicate
  // attribute names get ":i" suffixes, following the paper's A:i display.
  std::vector<std::string> OutputColumnNames() const;
  std::vector<ValueType> OutputColumnTypes() const;
  // The answer's relation scheme (named `relation_name`).
  Result<RelationSchema> OutputSchema(std::string relation_name) const;

  // True when the targets keep, for every atom, its declared key, or all
  // its columns when it declares none. A relation holds each row once
  // (by key, or whole), so distinct combinations of atom rows then
  // project to distinct answer rows, and the answer needs no
  // deduplication (DESIGN.md §17).
  bool ProjectsDistinctRows() const;

  // Type of the attribute a column refers to.
  ValueType ColumnType(const ColumnRef& ref) const;

  // A copy of this query whose target list is every product column in
  // flat order (atoms and conditions unchanged). Used by the
  // extended-mask delivery, which evaluates the answer before the final
  // projection so that mask predicates over non-requested attributes can
  // be tested per row.
  ConjunctiveQuery WithAllColumnsProjected() const;

  std::string ToString() const;

  // A canonical, name-independent signature: atoms in order, target flat
  // indices, and conditions over flat indices with type-tagged constants.
  // Two queries with equal signatures (over the same database scheme)
  // run the identical S'/S pipeline, which is what lets the
  // authorization cache key derived masks by (user, signature).
  std::string CanonicalSignature() const;

  // CanonicalSignature with the constant of the i-th column-constant
  // condition (in condition order) written as `labels[i]` instead of its
  // type-tagged text. The authorization cache passes each constant's
  // order class (authz/constant_class.h), so that queries of one shape
  // whose constants share their classes share one signature. A label
  // must not begin like a type name, so that it never reads as a
  // constant.
  std::string SignatureWith(const std::vector<std::string>& labels) const;

 private:
  std::string name_;
  std::vector<MembershipAtom> atoms_;
  std::vector<RelationSchema> atom_schemas_;
  std::vector<ColumnRef> targets_;
  std::vector<CalculusCondition> conditions_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_CALCULUS_CONJUNCTIVE_QUERY_H_
