#include "meta/ops.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "common/logging.h"

namespace viewauth {

namespace {

// Merges the bookkeeping of two factor tuples into a combined tuple.
// Variable->atoms maps agree where they overlap (same view, same
// variable), so plain union is correct; origins accumulate as a multiset.
void MergeBookkeeping(const MetaTuple& from, MetaTuple* into) {
  into->constraints().AddAll(from.constraints());
  for (const std::string& view : from.views()) into->views().insert(view);
  for (const auto& [var, atoms] : from.var_atoms()) {
    into->var_atoms()[var].insert(atoms.begin(), atoms.end());
  }
  for (AtomId atom : from.origin_atoms()) {
    into->origin_atoms().insert(atom);
  }
}

std::vector<MetaCell> BlankCells(int n) {
  return std::vector<MetaCell>(static_cast<size_t>(n), MetaCell::Blank());
}

}  // namespace

MetaRelation MetaProduct(const MetaRelation& left, const MetaRelation& right,
                         const MetaOpOptions& options, ExecContext* ctx) {
  std::vector<Attribute> columns = left.columns();
  columns.insert(columns.end(), right.columns().begin(),
                 right.columns().end());
  MetaRelation out(std::move(columns));
  // Meta-tuples are heavier than data rows (cells + bookkeeping maps);
  // the byte charge is a flat per-cell estimate.
  const long long tuple_bytes = 64 * out.arity();
  ExecMeter meter(ctx);

  for (const MetaTuple& l : left.tuples()) {
    for (const MetaTuple& r : right.tuples()) {
      if (!meter.Tick(1, tuple_bytes)) return out;
      MetaTuple q;
      q.cells() = l.cells();
      q.cells().insert(q.cells().end(), r.cells().begin(), r.cells().end());
      MergeBookkeeping(l, &q);
      MergeBookkeeping(r, &q);
      out.Add(std::move(q));
    }
  }

  if (options.padding) {
    // q1 = (a_1..a_m, blank...)  and  q2 = (blank..., b_1..b_n): the
    // factors' subviews remain subviews of the product (Section 4.2).
    for (const MetaTuple& l : left.tuples()) {
      if (!meter.Tick(1, tuple_bytes)) return out;
      MetaTuple q = l;
      std::vector<MetaCell> pad = BlankCells(right.arity());
      q.cells().insert(q.cells().end(), pad.begin(), pad.end());
      out.Add(std::move(q));
    }
    for (const MetaTuple& r : right.tuples()) {
      if (!meter.Tick(1, tuple_bytes)) return out;
      MetaTuple q;
      q.cells() = BlankCells(left.arity());
      q.cells().insert(q.cells().end(), r.cells().begin(), r.cells().end());
      MergeBookkeeping(r, &q);
      out.Add(std::move(q));
    }
  }
  return out;
}

namespace {

// Outcome of the four-case analysis for one tuple.
enum class SelectOutcome { kKeep, kDiscard };

// Ensures a variable id exists for a blank cell so that a constraint can
// be recorded against it (base-mode conjoin; overlap conjoins with a
// column-column predicate). The synthetic variable has no defining atoms
// and therefore never dangles.
VarId MaterializeVar(MetaTuple* tuple, int column, ValueType type,
                     VarAllocator* alloc) {
  VarId var = alloc->Next();
  bool starred = tuple->cells()[column].projected;
  tuple->cells()[column] = MetaCell::Var(var, starred);
  tuple->constraints().DeclareTermType(var, type);
  return var;
}

// Can the variable's predicate be considered in isolation and replaced by
// blank when implied by the query predicate? Requires: the variable is
// not dangling, does not relate to other variables, and occupies exactly
// the given cells.
bool VariableIsLocal(const MetaTuple& tuple, VarId var,
                     const std::vector<int>& expected_cells) {
  if (tuple.CellsOfVar(var) != expected_cells) return false;
  auto it = tuple.var_atoms().find(var);
  if (it != tuple.var_atoms().end()) {
    for (AtomId atom : it->second) {
      if (!tuple.origin_atoms().contains(atom)) return false;
    }
  }
  return !tuple.constraints().InteractsWithOtherTerms(var);
}

// Does `lambda` (a single atom over `var`) imply every constant
// constraint the tuple places on `var`?
bool LambdaImpliesMu(const MetaTuple& tuple, VarId var, ValueType type,
                     const ConstraintAtom& lambda) {
  ConstraintSet lambda_set;
  lambda_set.DeclareTermType(var, type);
  lambda_set.Add(lambda);
  std::vector<ConstraintAtom> mu_atoms =
      tuple.constraints().ExportAtoms({var});
  for (const ConstraintAtom& atom : mu_atoms) {
    if (lambda_set.Implies(atom) != Truth::kTrue) return false;
  }
  return true;
}

// Handles `column theta constant` against one tuple. Returns kDiscard to
// drop the tuple; mutates it otherwise.
SelectOutcome SelectColumnConst(MetaTuple* tuple, int column, Comparator op,
                                const Value& constant, ValueType column_type,
                                const MetaOpOptions& options,
                                VarAllocator* alloc) {
  MetaCell& cell = tuple->cells()[column];
  if (!cell.projected) {
    // Definition 2 requires the selected attribute to be projected;
    // filtering on an attribute the view withholds would leak it. The
    // refinement: when the view's own predicate mu provably implies
    // lambda, the selection is a no-op on the subview ("mu AND lambda is
    // simply mu") and the tuple is retained; when they are equivalent,
    // the cell can even be cleared, letting the tuple survive a later
    // projection that removes this column.
    if (!options.four_case) return SelectOutcome::kDiscard;
    switch (cell.kind) {
      case CellKind::kBlank:
        return SelectOutcome::kDiscard;  // mu is true: implies nothing
      case CellKind::kConst: {
        if (!cell.constant.Satisfies(op, constant)) {
          return SelectOutcome::kDiscard;
        }
        if (op == Comparator::kEq) {
          cell = MetaCell::Blank(/*starred=*/false);  // equivalent: clear
        }
        return SelectOutcome::kKeep;
      }
      case CellKind::kVar: {
        const VarId var = cell.var;
        ConstraintAtom lambda = ConstraintAtom::TermConst(var, op, constant);
        if (tuple->constraints().Implies(lambda) != Truth::kTrue) {
          return SelectOutcome::kDiscard;
        }
        if (VariableIsLocal(*tuple, var, {column}) &&
            LambdaImpliesMu(*tuple, var, column_type, lambda)) {
          tuple->ClearVariable(var);  // equivalent: clear
        }
        return SelectOutcome::kKeep;
      }
    }
    return SelectOutcome::kDiscard;
  }

  switch (cell.kind) {
    case CellKind::kBlank: {
      if (options.four_case) {
        // mu is true; lambda implies mu: clear (no change).
        return SelectOutcome::kKeep;
      }
      // Base mode: represent mu AND lambda in the cell.
      if (op == Comparator::kEq) {
        cell = MetaCell::Const(constant, /*starred=*/true);
      } else {
        VarId var = MaterializeVar(tuple, column, column_type, alloc);
        tuple->constraints().AddTermConst(var, op, constant);
      }
      return SelectOutcome::kKeep;
    }
    case CellKind::kConst: {
      // mu is (A = v). Either lambda fixes the same value (clear), or v
      // satisfies lambda (retain), or they contradict (discard).
      const bool satisfied = cell.constant.Satisfies(op, constant);
      if (options.four_case && op == Comparator::kEq && satisfied) {
        cell = MetaCell::Blank(/*starred=*/true);
        return SelectOutcome::kKeep;
      }
      return satisfied ? SelectOutcome::kKeep : SelectOutcome::kDiscard;
    }
    case CellKind::kVar: {
      const VarId var = cell.var;
      ConstraintAtom lambda = ConstraintAtom::TermConst(var, op, constant);
      if (options.four_case) {
        // Case 1: lambda implies mu -> clear the field.
        if (VariableIsLocal(*tuple, var, {column}) &&
            LambdaImpliesMu(*tuple, var, column_type, lambda)) {
          tuple->ClearVariable(var);
          return SelectOutcome::kKeep;
        }
        // Case 2: mu implies lambda -> retain unmodified.
        Truth implied = tuple->constraints().Implies(lambda);
        if (implied == Truth::kTrue) return SelectOutcome::kKeep;
        // Case 3: contradiction -> discard.
        if (implied == Truth::kFalse) return SelectOutcome::kDiscard;
      }
      // Case 4 (and base mode): conjoin mu AND lambda.
      tuple->constraints().Add(lambda);
      if (!tuple->constraints().IsSatisfiable()) {
        return SelectOutcome::kDiscard;
      }
      return SelectOutcome::kKeep;
    }
  }
  return SelectOutcome::kDiscard;
}

// Blanks one cell of a kept tuple, preserving its star. Sound for
// equality selections: on the answer (whose rows all satisfy
// column_i = column_j) the blanked description selects exactly the same
// rows, and the blanked side survives projections that remove it.
void EmitEqualityVariants(const MetaTuple& kept, int lhs, int rhs,
                          std::vector<MetaTuple>* extras) {
  for (int col : {lhs, rhs}) {
    if (kept.cells()[col].is_blank()) continue;
    MetaTuple variant = kept;
    const bool starred = variant.cells()[col].projected;
    variant.cells()[col] = MetaCell::Blank(starred);
    extras->push_back(std::move(variant));
  }
}

// Handles `column_i theta column_j` against one tuple.
SelectOutcome SelectColumnColumn(MetaTuple* tuple, int lhs, int rhs,
                                 Comparator op, ValueType lhs_type,
                                 ValueType rhs_type,
                                 const MetaOpOptions& options,
                                 VarAllocator* alloc) {
  // Degenerate predicate on a single column (A theta A): trivially true
  // or trivially false for every tuple, projected or not.
  if (lhs == rhs) {
    switch (op) {
      case Comparator::kEq:
      case Comparator::kLe:
      case Comparator::kGe:
        return SelectOutcome::kKeep;
      case Comparator::kNe:
      case Comparator::kLt:
      case Comparator::kGt:
        return SelectOutcome::kDiscard;
    }
    return SelectOutcome::kKeep;
  }

  MetaCell& lcell = tuple->cells()[lhs];
  MetaCell& rcell = tuple->cells()[rhs];

  const bool same_var = lcell.kind == CellKind::kVar &&
                        rcell.kind == CellKind::kVar &&
                        lcell.var == rcell.var;

  if (!lcell.projected || !rcell.projected) {
    // Definition 2 requires both attributes to be projected. Refinement:
    // when the tuple's own predicate mu provably implies lambda, the
    // selection is a no-op on the subview and the tuple is retained (the
    // same-variable equality case can even be cleared).
    if (!options.four_case) return SelectOutcome::kDiscard;
    if (same_var) {
      switch (op) {
        case Comparator::kEq:
          if (VariableIsLocal(*tuple, lcell.var,
                              {std::min(lhs, rhs), std::max(lhs, rhs)}) &&
              tuple->constraints().IsUnconstrained(lcell.var)) {
            tuple->ClearVariable(lcell.var);  // equivalent: clear
          }
          return SelectOutcome::kKeep;
        case Comparator::kLe:
        case Comparator::kGe:
          return SelectOutcome::kKeep;
        case Comparator::kNe:
        case Comparator::kLt:
        case Comparator::kGt:
          return SelectOutcome::kDiscard;
      }
      return SelectOutcome::kDiscard;
    }
    Truth implied = Truth::kUnknown;
    if (lcell.kind == CellKind::kConst && rcell.kind == CellKind::kConst) {
      implied = lcell.constant.Satisfies(op, rcell.constant)
                    ? Truth::kTrue
                    : Truth::kFalse;
    } else if (lcell.kind == CellKind::kVar &&
               rcell.kind == CellKind::kVar) {
      implied = tuple->constraints().Implies(
          ConstraintAtom::TermTerm(lcell.var, op, rcell.var));
    } else if (lcell.kind == CellKind::kVar &&
               rcell.kind == CellKind::kConst) {
      implied = tuple->constraints().Implies(
          ConstraintAtom::TermConst(lcell.var, op, rcell.constant));
    } else if (lcell.kind == CellKind::kConst &&
               rcell.kind == CellKind::kVar) {
      implied = tuple->constraints().Implies(ConstraintAtom::TermConst(
          rcell.var, ReverseComparator(op), lcell.constant));
    }
    // A blank side leaves mu unable to imply lambda.
    return implied == Truth::kTrue ? SelectOutcome::kKeep
                                   : SelectOutcome::kDiscard;
  }

  // Both blank: mu is true, lambda implies it - clear / no change. (In
  // base mode, materialize both sides and fall through to the conjoin.)
  if (lcell.is_blank() && rcell.is_blank()) {
    if (options.four_case) return SelectOutcome::kKeep;
    VarId lv = MaterializeVar(tuple, lhs, lhs_type, alloc);
    if (op == Comparator::kEq) {
      tuple->cells()[rhs] = MetaCell::Var(lv, rcell.projected);
    } else {
      VarId rv = MaterializeVar(tuple, rhs, rhs_type, alloc);
      tuple->constraints().AddTermTerm(lv, op, rv);
    }
    return SelectOutcome::kKeep;
  }

  // Both constants: evaluate directly.
  if (lcell.kind == CellKind::kConst && rcell.kind == CellKind::kConst) {
    return lcell.constant.Satisfies(op, rcell.constant)
               ? SelectOutcome::kKeep
               : SelectOutcome::kDiscard;
  }

  // A blank against a non-blank: absorb the non-blank side's term.
  if (lcell.is_blank() || rcell.is_blank()) {
    const bool blank_is_lhs = lcell.is_blank();
    const int blank_col = blank_is_lhs ? lhs : rhs;
    const ValueType blank_type = blank_is_lhs ? lhs_type : rhs_type;
    MetaCell& other = blank_is_lhs ? rcell : lcell;
    if (op == Comparator::kEq) {
      // The blank column simply mirrors the other side.
      if (other.kind == CellKind::kConst) {
        tuple->cells()[blank_col] =
            MetaCell::Const(other.constant,
                            tuple->cells()[blank_col].projected);
      } else {
        tuple->cells()[blank_col] =
            MetaCell::Var(other.var, tuple->cells()[blank_col].projected);
      }
      return SelectOutcome::kKeep;
    }
    VarId blank_var = MaterializeVar(tuple, blank_col, blank_type, alloc);
    // Orient the constraint as lhs-op-rhs.
    if (other.kind == CellKind::kConst) {
      Comparator oriented = blank_is_lhs ? op : ReverseComparator(op);
      tuple->constraints().AddTermConst(blank_var, oriented, other.constant);
    } else {
      if (blank_is_lhs) {
        tuple->constraints().AddTermTerm(blank_var, op, other.var);
      } else {
        tuple->constraints().AddTermTerm(other.var, op, blank_var);
      }
    }
    if (!tuple->constraints().IsSatisfiable()) {
      return SelectOutcome::kDiscard;
    }
    return SelectOutcome::kKeep;
  }

  // Variable against constant: reduce to a column-const selection on the
  // variable side, with the comparator oriented accordingly.
  if (lcell.kind == CellKind::kVar && rcell.kind == CellKind::kConst) {
    return SelectColumnConst(tuple, lhs, op, rcell.constant, lhs_type,
                             options, alloc);
  }
  if (lcell.kind == CellKind::kConst && rcell.kind == CellKind::kVar) {
    return SelectColumnConst(tuple, rhs, ReverseComparator(op),
                             lcell.constant, rhs_type, options, alloc);
  }

  // Variable against variable.
  const VarId x = lcell.var;
  const VarId y = rcell.var;
  if (x == y) {
    switch (op) {
      case Comparator::kEq:
      case Comparator::kLe:
      case Comparator::kGe: {
        if (options.four_case && op == Comparator::kEq &&
            VariableIsLocal(*tuple, x, {std::min(lhs, rhs),
                                        std::max(lhs, rhs)}) &&
            tuple->constraints().IsUnconstrained(x)) {
          // mu is exactly A_i = A_j: lambda and mu are equivalent; clear.
          tuple->ClearVariable(x);
        }
        return SelectOutcome::kKeep;  // x = x satisfies =, <=, >=
      }
      case Comparator::kNe:
      case Comparator::kLt:
      case Comparator::kGt:
        return SelectOutcome::kDiscard;  // x != x etc. are contradictions
    }
    return SelectOutcome::kKeep;
  }

  ConstraintAtom lambda = ConstraintAtom::TermTerm(x, op, y);
  if (options.four_case) {
    Truth implied = tuple->constraints().Implies(lambda);
    if (implied == Truth::kTrue) return SelectOutcome::kKeep;
    if (implied == Truth::kFalse) return SelectOutcome::kDiscard;
    if (op == Comparator::kEq && VariableIsLocal(*tuple, x, {lhs}) &&
        VariableIsLocal(*tuple, y, {rhs}) &&
        tuple->constraints().IsUnconstrained(x) &&
        tuple->constraints().IsUnconstrained(y)) {
      // mu only names the two columns; lambda makes them equal, which is
      // all mu could express — clear both fields.
      tuple->ClearVariable(x);
      tuple->ClearVariable(y);
      return SelectOutcome::kKeep;
    }
  }
  tuple->constraints().Add(lambda);
  if (!tuple->constraints().IsSatisfiable()) {
    return SelectOutcome::kDiscard;
  }
  return SelectOutcome::kKeep;
}

}  // namespace

MetaRelation MetaSelect(MetaRelation input, const MetaSelection& sel,
                        const MetaOpOptions& options, VarAllocator* alloc,
                        ExecContext* ctx) {
  VIEWAUTH_CHECK(sel.lhs_column >= 0 && sel.lhs_column < input.arity())
      << "selection column out of range";
  MetaRelation out(input.columns());
  const ValueType lhs_type = input.columns()[sel.lhs_column].type;
  ExecMeter meter(ctx);
  for (MetaTuple& tuple : input.tuples()) {
    if (!meter.TickRows(1)) return out;
    MetaTuple candidate = std::move(tuple);
    SelectOutcome outcome;
    if (sel.rhs_is_column) {
      VIEWAUTH_CHECK(sel.rhs_column >= 0 && sel.rhs_column < input.arity())
          << "selection column out of range";
      const ValueType rhs_type = input.columns()[sel.rhs_column].type;
      outcome =
          SelectColumnColumn(&candidate, sel.lhs_column, sel.rhs_column,
                             sel.op, lhs_type, rhs_type, options, alloc);
    } else {
      outcome = SelectColumnConst(&candidate, sel.lhs_column, sel.op,
                                  sel.rhs_const, lhs_type, options, alloc);
    }
    if (outcome == SelectOutcome::kKeep) {
      // Equality selections duplicate information across the two equal
      // columns, so each side may alternatively be blanked — the variants
      // describe the same delivered set on this answer, and a blanked
      // side survives projections that remove its column.
      if (options.four_case && sel.rhs_is_column &&
          sel.op == Comparator::kEq) {
        std::vector<MetaTuple> variants;
        EmitEqualityVariants(candidate, sel.lhs_column, sel.rhs_column,
                             &variants);
        for (MetaTuple& variant : variants) {
          out.Add(std::move(variant));
        }
      }
      out.Add(std::move(candidate));
    }
  }
  return RemoveDuplicates(std::move(out));
}

MetaRelation MetaProject(MetaRelation input, const std::vector<int>& keep) {
  std::vector<Attribute> columns;
  columns.reserve(keep.size());
  for (int c : keep) {
    VIEWAUTH_CHECK(c >= 0 && c < input.arity())
        << "projection column out of range";
    columns.push_back(input.columns()[c]);
  }
  std::set<int> kept(keep.begin(), keep.end());

  MetaRelation out(std::move(columns));
  for (MetaTuple& tuple : input.tuples()) {
    // Definition 3: a removed attribute must be blank.
    bool droppable = true;
    for (int c = 0; c < tuple.arity(); ++c) {
      if (!kept.contains(c) && !tuple.cells()[c].is_blank()) {
        droppable = false;
        break;
      }
    }
    if (!droppable) continue;
    std::vector<MetaCell> cells;
    cells.reserve(keep.size());
    for (int c : keep) cells.push_back(tuple.cells()[c]);
    tuple.cells() = std::move(cells);
    out.Add(std::move(tuple));
  }
  return out;
}

void ClearImpliedRestrictions(MetaRelation* rel, const ConstraintSet& lambda,
                              const std::function<TermId(int)>& column_term) {
  for (MetaTuple& tuple : rel->tuples()) {
    // Constant cells: cleared when the query already pins the column.
    for (int c = 0; c < tuple.arity(); ++c) {
      MetaCell& cell = tuple.cells()[c];
      if (cell.kind != CellKind::kConst) continue;
      Truth implied = lambda.Implies(ConstraintAtom::TermConst(
          column_term(c), Comparator::kEq, cell.constant));
      if (implied == Truth::kTrue) {
        cell = MetaCell::Blank(cell.projected);
      }
    }
    // Variable cells: cleared when the query implies both the variable's
    // constant constraints and (for shared variables) the equality of its
    // columns. Only variables whose constraints are self-contained (no
    // relations to other variables, no dangling atoms) qualify.
    for (VarId var : tuple.CellVars()) {
      std::vector<int> cells = tuple.CellsOfVar(var);
      if (!VariableIsLocal(tuple, var, cells)) continue;
      bool all_implied = true;
      for (size_t i = 1; i < cells.size() && all_implied; ++i) {
        all_implied = lambda.Implies(ConstraintAtom::TermTerm(
                          column_term(cells[0]), Comparator::kEq,
                          column_term(cells[i]))) == Truth::kTrue;
      }
      for (const ConstraintAtom& atom :
           tuple.constraints().ExportAtoms({var})) {
        if (!all_implied) break;
        if (atom.rhs_is_term) {
          all_implied = false;  // relates to another term after all
          break;
        }
        all_implied = lambda.Implies(ConstraintAtom::TermConst(
                          column_term(cells[0]), atom.op,
                          atom.rhs_const)) == Truth::kTrue;
      }
      if (all_implied) tuple.ClearVariable(var);
    }
  }
}

MetaRelation PruneHopeless(MetaRelation input,
                           const std::map<std::string, int>& remaining,
                           const std::map<AtomId, AtomInfo>& atom_info) {
  MetaRelation out(input.columns());
  // A tuple misses only a few atoms, so flat lists beat sets and maps:
  // the distinct missing atoms, and the (view, relation) of each with its
  // count.
  std::vector<AtomId> missing;
  std::vector<std::pair<const AtomInfo*, int>> needed;
  for (MetaTuple& tuple : input.tuples()) {
    // Any operand tuple carries at most one atom of a given view (the
    // self-join refinement never pairs a view with itself), so needing
    // more atoms of one view over relation X than there are X slots left
    // is hopeless.
    missing.clear();
    for (const MetaCell& cell : tuple.cells()) {
      if (cell.kind != CellKind::kVar) continue;
      auto it = tuple.var_atoms().find(cell.var);
      if (it == tuple.var_atoms().end()) continue;
      for (AtomId atom : it->second) {
        if (!tuple.origin_atoms().contains(atom)) missing.push_back(atom);
      }
    }
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
    needed.clear();
    for (AtomId atom : missing) {
      auto info = atom_info.find(atom);
      if (info == atom_info.end()) continue;
      auto same = std::find_if(
          needed.begin(), needed.end(), [&info](const auto& entry) {
            return entry.first->view == info->second.view &&
                   entry.first->relation == info->second.relation;
          });
      if (same == needed.end()) {
        needed.emplace_back(&info->second, 1);
      } else {
        ++same->second;
      }
    }
    const bool hopeless = std::any_of(
        needed.begin(), needed.end(), [&remaining](const auto& entry) {
          auto rem = remaining.find(entry.first->relation);
          return rem == remaining.end() || rem->second < entry.second;
        });
    if (!hopeless) out.Add(std::move(tuple));
  }
  return out;
}

MetaRelation PruneDanglingTuples(MetaRelation input) {
  MetaRelation out(input.columns());
  for (MetaTuple& tuple : input.tuples()) {
    if (!tuple.HasDanglingVariable()) out.Add(std::move(tuple));
  }
  return out;
}

MetaRelation RemoveDuplicates(MetaRelation input, bool respect_provenance) {
  MetaRelation out(input.columns());
  std::unordered_set<std::string> seen;
  seen.reserve(static_cast<size_t>(input.size()));
  for (MetaTuple& tuple : input.tuples()) {
    if (seen.insert(tuple.StructuralKey(respect_provenance)).second) {
      out.Add(std::move(tuple));
    }
  }
  return out;
}

namespace {

std::set<int> ProjectedColumns(const MetaTuple& tuple) {
  std::set<int> cols;
  for (int i = 0; i < tuple.arity(); ++i) {
    if (tuple.cells()[i].projected) cols.insert(i);
  }
  return cols;
}

bool IsUnrestricted(const MetaTuple& tuple) {
  for (const MetaCell& cell : tuple.cells()) {
    if (!cell.is_blank()) return false;
  }
  return tuple.constraints().atom_count() == 0;
}

}  // namespace

MetaRelation RemoveSubsumed(const MetaRelation& input) {
  const int n = input.size();
  std::vector<bool> dead(static_cast<size_t>(n), false);
  std::vector<std::set<int>> projections;
  projections.reserve(static_cast<size_t>(n));
  for (const MetaTuple& tuple : input.tuples()) {
    projections.push_back(ProjectedColumns(tuple));
  }

  // Rule 1: within a group of identical selection structure, keep only
  // tuples whose projection set is maximal.
  std::map<std::string, std::vector<int>> groups;
  for (int i = 0; i < n; ++i) {
    groups[input.tuples()[i].SelectionKey()].push_back(i);
  }
  for (const auto& [key, members] : groups) {
    (void)key;
    for (int i : members) {
      if (dead[i]) continue;
      for (int j : members) {
        if (i == j || dead[j] || dead[i]) continue;
        const bool superset =
            std::includes(projections[i].begin(), projections[i].end(),
                          projections[j].begin(), projections[j].end());
        if (superset && (projections[i] != projections[j] || j > i)) {
          dead[j] = true;
        }
      }
    }
  }

  // Rule 2: an unrestricted tuple absorbs any tuple projecting a subset
  // of its columns. Unrestricted tuples are few; scan against them only.
  std::vector<int> unrestricted;
  for (int i = 0; i < n; ++i) {
    if (!dead[i] && IsUnrestricted(input.tuples()[i])) {
      unrestricted.push_back(i);
    }
  }
  for (int j = 0; j < n; ++j) {
    if (dead[j]) continue;
    for (int i : unrestricted) {
      if (i == j || dead[i]) continue;
      if (std::includes(projections[i].begin(), projections[i].end(),
                        projections[j].begin(), projections[j].end())) {
        dead[j] = true;
        break;
      }
    }
  }

  MetaRelation out(input.columns());
  for (int i = 0; i < n; ++i) {
    if (!dead[i]) out.Add(input.tuples()[i]);
  }
  return out;
}

}  // namespace viewauth
