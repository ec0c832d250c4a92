// ConstraintSet: a conjunction of atomic order constraints over abstract
// terms, with decision procedures for satisfiability, implication, and
// contradiction.
//
// This is the reasoning engine behind the paper's Section 4.2 selection
// refinement: given the predicate mu expressed by a meta-tuple and the
// predicate lambda of a query selection, the meta-selection operator must
// decide which of four cases applies (lambda implies mu / mu implies
// lambda / contradiction / overlap). It also backs the COMPARISON
// auxiliary relation: comparative subformulas of views are constraints on
// view variables.
//
// Terms are integers (viewauth uses globally unique view-variable ids).
// Atoms are `term cmp constant` or `term cmp term` with cmp one of
// =, !=, <, <=, >, >=. The decision procedure maintains:
//   * a union-find over terms (equality classes),
//   * per-class constant bounds (with strictness) and constant pins,
//   * an order graph between classes (<= / < edges, transitively closed),
//   * disequalities (class-class and class-constant),
// and tightens integer bounds (x > 2 becomes x >= 3 for int-typed terms).
//
// Soundness: every kTrue/contradiction answer is correct. Completeness:
// complete for conjunctions over dense domains; for integer domains a few
// pigeonhole-style consequences of != are not derived (the paper
// explicitly allows an implementation to leave hard cases undecided, at
// the cost of selecting fewer meta-tuples).

#ifndef VIEWAUTH_PREDICATE_CONSTRAINT_H_
#define VIEWAUTH_PREDICATE_CONSTRAINT_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace viewauth {

using TermId = int;

// The most bound-propagation rounds the solver runs per normalization.
// Each round moves an integer bound by at most one (a strict bound
// tightened to the next integer), so every value the solver derives lies
// within this distance of some constant of the source atoms. The
// authorization cache's constant classes (authz/constant_class.h) rely
// on that bound.
inline constexpr int kMaxIntegerTightening = 32;

// One atomic constraint: `lhs op rhs` where rhs is a term or a constant.
struct ConstraintAtom {
  static ConstraintAtom TermConst(TermId lhs, Comparator op, Value rhs) {
    ConstraintAtom atom;
    atom.lhs = lhs;
    atom.op = op;
    atom.rhs_is_term = false;
    atom.rhs_const = std::move(rhs);
    return atom;
  }
  static ConstraintAtom TermTerm(TermId lhs, Comparator op, TermId rhs) {
    ConstraintAtom atom;
    atom.lhs = lhs;
    atom.op = op;
    atom.rhs_is_term = true;
    atom.rhs_term = rhs;
    return atom;
  }

  TermId lhs = 0;
  Comparator op = Comparator::kEq;
  bool rhs_is_term = false;
  TermId rhs_term = 0;
  Value rhs_const;

  bool operator==(const ConstraintAtom& other) const;
  // Human-readable, with `namer` rendering term ids (e.g. "x3 >= 250000").
  std::string ToString(
      const std::function<std::string(TermId)>& namer) const;
};

// Three-valued answers from the decision procedures.
enum class Truth { kFalse = 0, kTrue = 1, kUnknown = 2 };

class ConstraintSet {
 public:
  ConstraintSet() = default;

  // Declares a term's domain type; affects integer bound tightening and
  // type-mismatch contradiction detection. Terms default to an unknown
  // domain (no tightening).
  void DeclareTermType(TermId term, ValueType type);

  // Conjoins one atom. Never fails; an inconsistent conjunction simply
  // renders the set unsatisfiable.
  void Add(const ConstraintAtom& atom);
  void AddTermConst(TermId lhs, Comparator op, Value rhs) {
    Add(ConstraintAtom::TermConst(lhs, op, std::move(rhs)));
  }
  void AddTermTerm(TermId lhs, Comparator op, TermId rhs) {
    Add(ConstraintAtom::TermTerm(lhs, op, rhs));
  }

  // Conjoins every atom of `other` (term ids shared).
  void AddAll(const ConstraintSet& other);

  bool IsSatisfiable() const;

  // A deeper, analyzer-grade satisfiability check. IsSatisfiable() is
  // sound but incomplete on integer domains: pigeonhole consequences of
  // pairwise disequalities (three integer terms confined to a two-value
  // range, say) escape the bound-propagation procedure. This variant
  // additionally enumerates total assignments when every mentioned term
  // lies in an integer class with finite derived bounds, proving such
  // sets unsatisfiable. `limit` caps the number of candidate
  // assignments; beyond it (or with unbounded/non-integer terms) the
  // answer is kUnknown. kFalse: proven unsatisfiable. kTrue: a model
  // exists. Too slow for the per-query masking path; used by the static
  // catalog analyzer (src/analysis), where thoroughness beats latency.
  Truth DeepCheckSatisfiable(long long limit = 100000) const;

  // Does this set entail `atom`? kTrue: every model satisfies it.
  // kFalse: no model satisfies it (the atom contradicts the set).
  // kUnknown: neither is provable.
  Truth Implies(const ConstraintAtom& atom) const;

  // Does this set entail every atom of `other`? (kFalse when some atom is
  // contradicted, kUnknown otherwise.)
  Truth ImpliesAll(const ConstraintSet& other) const;

  // Is `this AND other` unsatisfiable? Sound; complete for dense domains.
  bool ContradictsWith(const ConstraintSet& other) const;

  // True if the set places no restriction at all on `term` (no bounds, no
  // pins, no order edges, no disequalities involving it).
  bool IsUnconstrained(TermId term) const;

  // True if `term` is related to some *other* term (same equality class,
  // an order edge, or a disequality). When false, every constraint on
  // `term` is against constants only, so the term's predicate can be
  // reasoned about in isolation (the clearing case of the selection
  // refinement requires this).
  bool InteractsWithOtherTerms(TermId term) const;

  // True if `a` and `b` are in the same equality class.
  bool AreEqual(TermId a, TermId b) const;
  // The constant `term` is pinned to, if any.
  std::optional<Value> PinnedConstant(TermId term) const;

  // A canonical list of atoms equivalent to this set (pins, bounds, order
  // edges, disequalities), mentioning only the given terms when `terms`
  // is nonempty. Used to print masks as permit statements.
  std::vector<ConstraintAtom> ExportAtoms(
      const std::vector<TermId>& terms = {}) const;

  // Every term mentioned by any constraint.
  std::vector<TermId> MentionedTerms() const;

  // Removes all constraints that mention `term` (used when a cleared
  // view variable disappears from a meta-tuple).
  void ForgetTerm(TermId term);

  // Evaluates whether a concrete assignment satisfies the set. Terms not
  // present in `assignment` make the answer false (total assignments
  // expected). Used by property tests and by mask application.
  bool Satisfied(const std::map<TermId, Value>& assignment) const;

  // Number of stored source atoms (diagnostics).
  int atom_count() const { return static_cast<int>(atoms_.size()); }

  // The stored source atoms, as conjoined. Satisfied() evaluates exactly
  // this list, which is what lets the compiled-mask path
  // (authz/compiled_mask.h) precompile the per-row check.
  const std::vector<ConstraintAtom>& source_atoms() const { return atoms_; }

  std::string ToString() const;

 private:
  struct Bound {
    std::optional<Value> value;
    bool strict = false;

    bool operator==(const Bound& other) const {
      return value == other.value && strict == other.strict;
    }
  };
  // Solver state, rebuilt from `atoms_` by Normalize().
  struct Solved {
    bool unsat = false;
    // Union-find over term ids.
    std::map<TermId, TermId> parent;
    // Per-root state.
    std::map<TermId, Bound> lower;
    std::map<TermId, Bound> upper;
    std::map<TermId, Value> pin;
    // Order edges root->root; value true means strict (<).
    std::map<std::pair<TermId, TermId>, bool> edges;
    std::set<std::pair<TermId, TermId>> diseq_terms;   // unordered pairs
    std::set<std::pair<TermId, Value>> diseq_consts;

    TermId Find(TermId t);
    TermId FindConst(TermId t) const;  // no path compression
  };

  const Solved& Normalized() const;

  std::vector<ConstraintAtom> atoms_;
  std::map<TermId, ValueType> term_types_;
  mutable std::optional<Solved> solved_;  // cache, invalidated by Add
};

std::string_view TruthToString(Truth truth);

}  // namespace viewauth

#endif  // VIEWAUTH_PREDICATE_CONSTRAINT_H_
