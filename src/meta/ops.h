// Extended algebraic operators on meta-relations (paper Section 4).
//
// MetaProduct, MetaSelect and MetaProject generalize product, selection
// and projection to relations of view definitions (Definitions 1-3), with
// the Section 4.2 refinements available behind options:
//   * padding:   the product also emits (r, blank...) and (blank..., s)
//                so pre-existing subviews survive projections that remove
//                one operand entirely;
//   * four_case: the selection decides, per meta-tuple, whether the query
//                predicate lambda implies / is implied by / contradicts /
//                overlaps the tuple predicate mu, and clears, retains,
//                discards, or conjoins accordingly (backed by the
//                ConstraintSet decision procedures). With the option off,
//                the base Definition 2 behaviour (always conjoin) is used.
//
// PruneHopeless and PruneDanglingTuples implement the post-product
// pruning of tuples that reference meta-tuples outside the result;
// RemoveDuplicates and RemoveSubsumed implement the "after replications
// are removed" cleanup.
//
// MetaSelect, MetaProject, the pruning operators and RemoveDuplicates take
// their input by value and move its tuples into the result; a caller that
// still needs the input passes a copy.

#ifndef VIEWAUTH_META_OPS_H_
#define VIEWAUTH_META_OPS_H_

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "meta/meta_tuple.h"
#include "types/value.h"

namespace viewauth {

// Allocates fresh variable ids for synthetic variables introduced by
// base-mode selections. Ids start high to stay clear of catalog ids.
// Atomic: the catalog's allocator is shared by concurrent sessions.
class VarAllocator {
 public:
  explicit VarAllocator(VarId first = 1000000) : next_(first) {}
  VarId Next() { return next_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<VarId> next_;
};

struct MetaOpOptions {
  bool padding = true;
  bool four_case = true;
};

// One primitive selection predicate over the meta-relation's columns.
struct MetaSelection {
  static MetaSelection ColumnConst(int column, Comparator op, Value value) {
    MetaSelection sel;
    sel.lhs_column = column;
    sel.op = op;
    sel.rhs_is_column = false;
    sel.rhs_const = std::move(value);
    return sel;
  }
  static MetaSelection ColumnColumn(int lhs, Comparator op, int rhs) {
    MetaSelection sel;
    sel.lhs_column = lhs;
    sel.op = op;
    sel.rhs_is_column = true;
    sel.rhs_column = rhs;
    return sel;
  }

  int lhs_column = 0;
  Comparator op = Comparator::kEq;
  bool rhs_is_column = false;
  int rhs_column = 0;
  Value rhs_const;
};

// Definition 1 (+ padding refinement): the product of two meta-relations.
// A non-null `ctx` charges each emitted meta-tuple against the execution
// governor (the S' side of the budget symmetry) and stops emitting once
// the context trips; callers must then check ctx->status() and discard
// the partial result.
MetaRelation MetaProduct(const MetaRelation& left, const MetaRelation& right,
                         const MetaOpOptions& options,
                         ExecContext* ctx = nullptr);

// Definition 2 (+ four-case refinement): selection by one primitive
// predicate. Tuples whose relevant cells are not projected are dropped
// (the paper's precondition), as are tuples whose predicate becomes
// unsatisfiable. `alloc` supplies fresh variables for base-mode conjoins
// onto blank cells.
// A non-null `ctx` ticks per input tuple (the four-case analysis can
// invoke the constraint solver per tuple) and stops once tripped.
MetaRelation MetaSelect(MetaRelation input, const MetaSelection& sel,
                        const MetaOpOptions& options, VarAllocator* alloc,
                        ExecContext* ctx = nullptr);

// Definition 3 (generalized to keep-lists): projection onto `keep`
// columns, in order. Tuples restricting a removed column are dropped.
MetaRelation MetaProject(MetaRelation input, const std::vector<int>& keep);

// Post-pass of the four-case refinement. Selections are applied one
// primitive predicate at a time, so a *conjunction* of query predicates
// that jointly implies a tuple's restriction (the paper's case 3:
// view 300k-600k, query 400k-500k) is only detectable afterwards. This
// pass clears every variable or constant cell whose restriction is
// implied by `lambda`, the query's full selection conjunction expressed
// over column terms (`column_term(col)` maps a column index to its term
// id in `lambda`). Cleared cells survive later projections.
void ClearImpliedRestrictions(MetaRelation* rel, const ConstraintSet& lambda,
                              const std::function<TermId(int)>& column_term);

// Early pruning between meta-products: drops every tuple that can no
// longer shed its dangling references. `remaining` counts, per relation,
// the product operands still to come; `atom_info` names each atom's view
// and relation. A tuple missing more atoms of one view over relation X
// than there are X operands left is hopeless. Hopelessness reads only a
// tuple's cells, origin atoms and variable atom sets — all part of the
// provenance StructuralKey — so this filter commutes with
// RemoveDuplicates and keeps the same first representatives.
MetaRelation PruneHopeless(MetaRelation input,
                           const std::map<std::string, int>& remaining,
                           const std::map<AtomId, AtomInfo>& atom_info);

// Post-product pruning of tuples with dangling variable references.
MetaRelation PruneDanglingTuples(MetaRelation input);

// Structural duplicate elimination (alpha-equivalent tuples collapse;
// the first of each class is kept, in input order).
// `respect_provenance` must stay true while products may still follow;
// on the final mask it can be false, collapsing tuples that differ only
// in which view atoms produced them.
MetaRelation RemoveDuplicates(MetaRelation input,
                              bool respect_provenance = true);

// Conservative subsumption: drops a tuple whose permitted cells are a
// subset of another tuple's. Two rules are applied:
//   (1) same cells and constraints, smaller projection set;
//   (2) an unrestricted tuple (all cells blank, no constraints) absorbs
//       any tuple projecting a subset of its starred columns.
MetaRelation RemoveSubsumed(const MetaRelation& input);

}  // namespace viewauth

#endif  // VIEWAUTH_META_OPS_H_
