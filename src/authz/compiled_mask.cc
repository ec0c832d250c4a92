#include "authz/compiled_mask.h"

#include "storage/column_batch.h"

namespace viewauth {

CompiledMaskTuple::CompiledMaskTuple(const MetaTuple& tuple) {
  const int arity = tuple.arity();
  projected_bits_.assign((static_cast<size_t>(arity) + 63) / 64, 0);

  // One pass over the cells: constants, projected columns, and variable
  // groups in first-encounter cell order (the binding order RowSatisfies
  // uses).
  std::vector<std::vector<int>> group_cols;
  for (int i = 0; i < arity; ++i) {
    const MetaCell& cell = tuple.cells()[i];
    if (cell.projected) {
      projected_bits_[static_cast<size_t>(i) / 64] |=
          uint64_t{1} << (static_cast<size_t>(i) % 64);
    }
    if (cell.kind == CellKind::kConst) {
      const_cells_.push_back(ConstCheck{i, cell.constant});
    } else if (cell.kind == CellKind::kVar) {
      size_t g = 0;
      while (g < group_vars_.size() && group_vars_[g] != cell.var) ++g;
      if (g == group_vars_.size()) {
        group_vars_.push_back(cell.var);
        group_cols.emplace_back();
      }
      group_cols[g].push_back(i);
    }
  }
  group_begin_.push_back(0);
  for (const std::vector<int>& cols : group_cols) {
    var_cols_flat_.insert(var_cols_flat_.end(), cols.begin(), cols.end());
    group_begin_.push_back(static_cast<int>(var_cols_flat_.size()));
  }

  const ConstraintSet& constraints = tuple.constraints();
  if (group_vars_.empty() && constraints.atom_count() == 0) {
    trivially_true_ = true;
    return;
  }

  // "Total" constraints: every mentioned term is a cell variable, so the
  // source atoms evaluate directly over the row's cell bindings and the
  // solver is never needed.
  auto group_of = [&](TermId term) -> int {
    for (size_t g = 0; g < group_vars_.size(); ++g) {
      if (group_vars_[g] == term) return static_cast<int>(g);
    }
    return -1;
  };
  constraints_total_ = true;
  for (TermId term : constraints.MentionedTerms()) {
    if (group_of(term) < 0) {
      constraints_total_ = false;
      break;
    }
  }
  if (constraints_total_) {
    // The binding of a variable is its first cell in cell order.
    auto binding_col = [&](TermId term) {
      return var_cols_flat_[static_cast<size_t>(
          group_begin_[static_cast<size_t>(group_of(term))])];
    };
    atoms_.reserve(constraints.source_atoms().size());
    for (const ConstraintAtom& atom : constraints.source_atoms()) {
      CompiledAtom compiled;
      compiled.lhs_col = binding_col(atom.lhs);
      compiled.op = atom.op;
      if (atom.rhs_is_term) {
        compiled.rhs_is_col = true;
        compiled.rhs_col = binding_col(atom.rhs_term);
      } else {
        compiled.rhs_const = atom.rhs_const;
      }
      atoms_.push_back(std::move(compiled));
    }
  } else {
    fallback_constraints_ = constraints;
  }
}

bool CompiledMaskTuple::Satisfies(const Tuple& row) const {
  for (const ConstCheck& check : const_cells_) {
    if (!row.at(check.col).Satisfies(Comparator::kEq, check.value)) {
      return false;
    }
  }
  if (trivially_true_) return true;

  // Variable groups: every cell non-null, cells of a group equal to the
  // group's binding (its first cell).
  for (size_t g = 0; g < group_vars_.size(); ++g) {
    const int begin = group_begin_[g];
    const int end = group_begin_[g + 1];
    const Value& bound = row.at(var_cols_flat_[static_cast<size_t>(begin)]);
    if (bound.is_null()) return false;
    for (int k = begin + 1; k < end; ++k) {
      const Value& v = row.at(var_cols_flat_[static_cast<size_t>(k)]);
      if (v.is_null()) return false;
      if (!bound.Satisfies(Comparator::kEq, v)) return false;
    }
  }

  if (constraints_total_) {
    for (const CompiledAtom& atom : atoms_) {
      const Value& lhs = row.at(atom.lhs_col);
      const Value& rhs =
          atom.rhs_is_col ? row.at(atom.rhs_col) : atom.rhs_const;
      if (!lhs.Satisfies(atom.op, rhs)) return false;
    }
    return true;
  }

  // Store-only (existential) variables remain: delegate to the solver,
  // pinning each cell variable to its binding.
  ConstraintSet check = fallback_constraints_;
  for (size_t g = 0; g < group_vars_.size(); ++g) {
    check.AddTermConst(
        group_vars_[g], Comparator::kEq,
        row.at(var_cols_flat_[static_cast<size_t>(group_begin_[g])]));
  }
  return check.IsSatisfiable();
}

void CompiledMaskTuple::FilterBatch(ColumnBatch* batch,
                                    std::vector<uint32_t>* sel) const {
  // Mirrors Satisfies() check by check; the conjunction is the same
  // whether it short-circuits per row or filters column at a time.
  for (const ConstCheck& check : const_cells_) {
    if (sel->empty()) return;
    FilterColumnConst(batch->column(check.col), Comparator::kEq, check.value,
                      sel);
  }
  if (trivially_true_) return;

  for (size_t g = 0; g < group_vars_.size(); ++g) {
    const int begin = group_begin_[g];
    const int end = group_begin_[g + 1];
    const int bind_col = var_cols_flat_[static_cast<size_t>(begin)];
    if (sel->empty()) return;
    FilterNotNull(batch->column(bind_col), sel);
    for (int k = begin + 1; k < end; ++k) {
      if (sel->empty()) return;
      // Satisfies(kEq, ...) is false whenever either side is NULL, so
      // this also enforces the non-null requirement on the group's
      // other cells.
      FilterColumnColumn(batch->column(bind_col), Comparator::kEq,
                         batch->column(var_cols_flat_[static_cast<size_t>(k)]),
                         sel);
    }
  }

  if (constraints_total_) {
    for (const CompiledAtom& atom : atoms_) {
      if (sel->empty()) return;
      if (atom.rhs_is_col) {
        FilterColumnColumn(batch->column(atom.lhs_col), atom.op,
                           batch->column(atom.rhs_col), sel);
      } else {
        FilterColumnConst(batch->column(atom.lhs_col), atom.op,
                          atom.rhs_const, sel);
      }
    }
    return;
  }

  // Store-only (existential) variables remain: solver per surviving row.
  size_t out = 0;
  for (uint32_t i : *sel) {
    ConstraintSet check = fallback_constraints_;
    for (size_t g = 0; g < group_vars_.size(); ++g) {
      check.AddTermConst(
          group_vars_[g], Comparator::kEq,
          batch->column(var_cols_flat_[static_cast<size_t>(group_begin_[g])])
              .value(i));
    }
    if (check.IsSatisfiable()) (*sel)[out++] = i;
  }
  sel->resize(out);
}

CompiledMask CompiledMask::Compile(const MetaRelation& mask) {
  CompiledMask compiled;
  compiled.tuples.reserve(mask.tuples().size());
  for (const MetaTuple& tuple : mask.tuples()) {
    compiled.tuples.emplace_back(tuple);
  }
  return compiled;
}

}  // namespace viewauth
