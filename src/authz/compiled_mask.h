// Compiled mask tuples: the per-row satisfaction check of a mask tuple
// (Authorizer::RowSatisfies) precompiled into flat arrays.
//
// A MetaTuple answers "does this answer row fall inside the subview I
// define?" via its constant cells, its variable cells (cells sharing a
// VarId must hold equal values), and its comparative constraints. The
// interpretive check, RowSatisfies, builds a std::map<TermId, Value> for
// every row x mask-tuple pair — an allocation storm on the production
// hot path, and kept only as the canonical plan's oracle.
//
// CompiledMaskTuple precomputes, once per mask tuple:
//   * the constant cells as a flat (column, value) list;
//   * the variable groups — cell indices sharing a VarId — as one flat
//     column array with group offsets;
//   * the projected-column bitmask;
//   * whether the constraint set is "total" over cell-bound terms, in
//     which case each constraint atom is compiled to direct column
//     comparisons and the solver is never consulted.
// Row checks are then flat-array scans with no per-row allocation. Only
// tuples whose constraints mention store-only (existential) variables
// still fall back to the constraint solver, and even that path reuses
// the precomputed group arrays instead of re-deriving CellVars per row.
//
// A CompiledMask owns copies of everything it needs (values, constraint
// sets), so it can outlive the MetaRelation it was compiled from — which
// is what lets a cached Decision (authz/authz_cache.h) carry one beside
// its mask.

#ifndef VIEWAUTH_AUTHZ_COMPILED_MASK_H_
#define VIEWAUTH_AUTHZ_COMPILED_MASK_H_

#include <cstdint>
#include <vector>

#include "meta/meta_tuple.h"
#include "storage/tuple.h"

namespace viewauth {

class ColumnBatch;

class CompiledMaskTuple {
 public:
  explicit CompiledMaskTuple(const MetaTuple& tuple);

  // True when `row` satisfies the tuple's selection predicate. Exactly
  // equivalent to Authorizer::RowSatisfies(tuple, row) for the source
  // tuple (the differential tier asserts the pipelines agree).
  bool Satisfies(const Tuple& row) const;

  // Batch form of Satisfies for the vectorized mask-apply path: filters
  // `sel` (ordinals into `batch`) in place, keeping exactly the rows
  // Satisfies would accept. Each check runs as a per-column kernel over
  // the batch's gathered columns (storage/column_batch.h); only tuples
  // whose constraints mention store-only variables fall back to the
  // solver, and only for rows surviving every kernel.
  void FilterBatch(ColumnBatch* batch, std::vector<uint32_t>* sel) const;

  // Bitmask over columns, 64 per word.
  bool IsProjected(int col) const {
    const size_t word = static_cast<size_t>(col) / 64;
    return word < projected_bits_.size() &&
           (projected_bits_[word] >> (static_cast<size_t>(col) % 64)) & 1;
  }

 private:
  struct ConstCheck {
    int col;
    Value value;
  };
  // A constraint atom compiled to column positions (the first cell of
  // each variable's group — the binding RowSatisfies would use).
  struct CompiledAtom {
    int lhs_col;
    Comparator op;
    bool rhs_is_col = false;
    int rhs_col = 0;
    Value rhs_const;
  };

  std::vector<ConstCheck> const_cells_;
  // Variable groups: group g spans var_cols_flat_[group_begin_[g] ..
  // group_begin_[g+1]); the group's binding cell is the first entry.
  std::vector<int> var_cols_flat_;
  std::vector<int> group_begin_;  // size = groups + 1
  std::vector<VarId> group_vars_;
  std::vector<uint64_t> projected_bits_;
  // No variable cells and no constraints: consts decide alone.
  bool trivially_true_ = false;
  // Every constrained term is cell-bound: `atoms_` decides without the
  // solver.
  bool constraints_total_ = false;
  std::vector<CompiledAtom> atoms_;
  // Solver fallback (store-only existential variables remain). Owned
  // copy, populated only when !constraints_total_.
  ConstraintSet fallback_constraints_;
};

// A compiled mask: one compiled tuple per mask tuple, same order.
struct CompiledMask {
  std::vector<CompiledMaskTuple> tuples;

  static CompiledMask Compile(const MetaRelation& mask);
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_COMPILED_MASK_H_
