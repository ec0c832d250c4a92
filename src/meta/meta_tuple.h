// Meta-tuples and meta-relations (paper Section 3).
//
// A meta-tuple defines a subview (a selection plus a projection) of one
// relation. Each cell is blank, a constant, or a variable, optionally
// "starred" (projected). Variables shared between meta-tuples express
// join conditions; comparative subformulas on variables live in the
// COMPARISON store, represented here as a ConstraintSet carried inside
// the tuple.
//
// Beyond the paper's printed form, each MetaTuple carries provenance that
// the Section 4.1 pruning step needs:
//   * `origin_atoms`: which membership atoms (of which views) this tuple
//     covers — a combined tuple produced by meta-products covers the
//     atoms of all its factors;
//   * `var_atoms`: for each variable, the set of membership atoms of its
//     defining view that mention it. A variable is *dangling* in a tuple
//     when some of its defining atoms are not among the tuple's origins —
//     the tuple then "contains references to meta-tuples outside A'" and
//     must be pruned after products.

#ifndef VIEWAUTH_META_META_TUPLE_H_
#define VIEWAUTH_META_META_TUPLE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "predicate/constraint.h"
#include "schema/schema.h"
#include "types/value.h"

namespace viewauth {

// Globally unique ids, assigned by the ViewCatalog at view-compile time.
using VarId = int;
using AtomId = int;

// A membership atom's origin: the view whose definition holds it and the
// relation it ranges over.
struct AtomInfo {
  std::string view;
  std::string relation;
};

enum class CellKind { kBlank, kConst, kVar };

struct MetaCell {
  CellKind kind = CellKind::kBlank;
  bool projected = false;  // the '*' suffix
  Value constant;          // kConst
  VarId var = -1;          // kVar

  static MetaCell Blank(bool starred = false) {
    MetaCell cell;
    cell.projected = starred;
    return cell;
  }
  static MetaCell Const(Value value, bool starred) {
    MetaCell cell;
    cell.kind = CellKind::kConst;
    cell.constant = std::move(value);
    cell.projected = starred;
    return cell;
  }
  static MetaCell Var(VarId var, bool starred) {
    MetaCell cell;
    cell.kind = CellKind::kVar;
    cell.var = var;
    cell.projected = starred;
    return cell;
  }

  bool is_blank() const { return kind == CellKind::kBlank; }
  bool operator==(const MetaCell& other) const;

  // Paper notation: "" (blank), "*", "Acme", "Acme*", "x1", "x1*".
  // `var_namer` renders variable ids.
  std::string ToString(
      const std::function<std::string(VarId)>& var_namer) const;
};

class MetaTuple {
 public:
  MetaTuple() = default;

  std::vector<MetaCell>& cells() { return cells_; }
  const std::vector<MetaCell>& cells() const { return cells_; }
  int arity() const { return static_cast<int>(cells_.size()); }

  ConstraintSet& constraints() { return constraints_; }
  const ConstraintSet& constraints() const { return constraints_; }

  std::set<std::string>& views() { return views_; }
  const std::set<std::string>& views() const { return views_; }

  std::map<VarId, std::set<AtomId>>& var_atoms() { return var_atoms_; }
  const std::map<VarId, std::set<AtomId>>& var_atoms() const {
    return var_atoms_;
  }

  std::multiset<AtomId>& origin_atoms() { return origin_atoms_; }
  const std::multiset<AtomId>& origin_atoms() const { return origin_atoms_; }

  // All variables appearing in cells (with duplicates collapsed).
  std::set<VarId> CellVars() const;
  // Cell positions of a variable.
  std::vector<int> CellsOfVar(VarId var) const;

  // True when some cell variable's defining atoms are not all covered by
  // this tuple's origins (paper: references a meta-tuple outside A').
  bool HasDanglingVariable() const;

  // Drops a variable from the tuple: its cells become blank (projection
  // flags preserved), its bookkeeping and constraints are removed. Used
  // by the "clear the field" case of the selection refinement.
  void ClearVariable(VarId var);

  // Combined label, e.g. "EST,SAE".
  std::string ViewLabel() const;

  // A canonical key for duplicate elimination, built in one pass into
  // one string. It encodes each cell (blank; a constant by type tag plus
  // value, strings length-prefixed; a variable by its first-occurrence
  // index, so alpha-equivalent tuples collide), the projection stars, and
  // the exported (normalized) constraints over cell variables in sorted
  // order. Nothing is encoded by display text, so a string constant never
  // collides with a variable or a number. Provenance (origin atoms /
  // variable atom sets) is part of the key by default — two tuples with
  // identical cells may still behave differently under a later product's
  // dangling pruning. Once all products are done (the final mask),
  // provenance no longer matters and can be excluded. The key is
  // printable, e.g. "v0*|*|s4:Acme|#v0 >= i10@1,@v0:1,3,;".
  std::string StructuralKey(bool include_provenance = true) const;

  // StructuralKey without projection stars or provenance: tuples with
  // equal selection keys restrict the same rows (subsumption grouping).
  std::string SelectionKey() const;

  // Paper-style rendering of the cells, e.g. "(x1*, *, )".
  std::string ToString(
      const std::function<std::string(VarId)>& var_namer) const;

 private:
  std::vector<MetaCell> cells_;
  ConstraintSet constraints_;
  std::set<std::string> views_;
  std::map<VarId, std::set<AtomId>> var_atoms_;
  std::multiset<AtomId> origin_atoms_;
};

// A meta-relation: a list of meta-tuples over a common column layout.
// During manipulation the columns are those of the (product of) operand
// relations; the VIEW attribute of the stored form is carried as
// MetaTuple::views() labels instead (the paper drops it during
// manipulation too — Section 4 footnote 3).
class MetaRelation {
 public:
  MetaRelation() = default;
  explicit MetaRelation(std::vector<Attribute> columns)
      : columns_(std::move(columns)) {}

  const std::vector<Attribute>& columns() const { return columns_; }
  int arity() const { return static_cast<int>(columns_.size()); }

  std::vector<MetaTuple>& tuples() { return tuples_; }
  const std::vector<MetaTuple>& tuples() const { return tuples_; }
  int size() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  void Add(MetaTuple tuple) { tuples_.push_back(std::move(tuple)); }

  // Multi-line table rendering in the paper's style.
  std::string ToString(
      const std::function<std::string(VarId)>& var_namer) const;

 private:
  std::vector<Attribute> columns_;
  std::vector<MetaTuple> tuples_;
};

// Default variable renderer: "x<id>".
std::string DefaultVarName(VarId var);

}  // namespace viewauth

#endif  // VIEWAUTH_META_META_TUPLE_H_
