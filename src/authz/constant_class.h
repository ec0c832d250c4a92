// Order classes of query constants: one S' derivation per class.
//
// S' never reads data, and under the four-case rule (paper Section 4.2)
// a query constant is only ever compared, on an ordered domain, with the
// view constants of the user's prepared meta-relations and with the
// query's other constants. The constraint solver adds one more kind of
// arithmetic: integer tightening moves a bound by at most
// kMaxIntegerTightening (predicate/constraint.h). So two queries of one
// shape whose constants sit in the same places among those constants —
// their order classes — get the same mask, up to renaming the constants.
// When the mask names none of them, it is simply the same mask, and the
// authorization cache can serve one derivation to the whole class.
//
// Constants are compared only within a *component* of product columns.
// Two columns share a component when they share a variable in some
// prepared meta-tuple, when a term-term constraint atom links their
// variables, or when one of the query's column-column conditions links
// them: those are the only ways the solver relates two terms, and a
// constant is only compared with the bounds of its own term's class.
//
// The class of a constant:
//   * an Int64 constant is placed by how many of its component's numeric
//     view constants lie below it, and must lie more than kClassGuard
//     away from each of them. Every value the solver derives is a source
//     constant shifted by at most kMaxIntegerTightening, so with a guard
//     of at least twice that shift, every comparison between a derived
//     view value and a derived query value comes out the same across the
//     class, adjacency included;
//   * a string constant is placed by its position among the component's
//     string view constants, equal to one of them (then it is fixed by
//     its class, not free) or strictly between two (strings have no
//     successor reasoning, so order is all that matters);
//   * constants of one component are also ordered among themselves, and
//     for Int64 ones the gap to the next smaller is recorded exactly up
//     to kClassGuard and as "far" beyond it.
// Any other constant (a double, a NULL), an Int64 within the guard of a
// view constant, or one large enough to lose precision as a double,
// leaves the query without a class: it keeps its exact key.
//
// No rewriting: a decision is stored under its class key only when its
// mask mentions no constant within kClassGuard of a free query constant
// (ConstantClass::Admits). Such a mask holds only view-derived values, so
// every query of the class derives it identically and a class hit
// returns the very same immutable Decision. A mask that does name a
// query constant (a case-4 conjoin) goes under the exact key, and so do
// its siblings' masks.
//
// Hazard: structural keys print constants as text, so their sort order
// is not the numeric order. No step of S' breaks a tie by that order —
// duplicate elimination keeps the first representative in input order
// and subsumption groups only by key equality — which is what makes the
// mask order the same across a class; the sibling legs of the
// differential and golden tiers check it.

#ifndef VIEWAUTH_AUTHZ_CONSTANT_CLASS_H_
#define VIEWAUTH_AUTHZ_CONSTANT_CLASS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "calculus/conjunctive_query.h"
#include "meta/meta_tuple.h"
#include "predicate/constraint.h"
#include "types/value.h"

namespace viewauth {

// G: how far an Int64 query constant must stay from every view constant
// of its component to have a class, and how close a mask constant may
// come to a free query constant before the decision keeps its exact key.
inline constexpr int64_t kClassGuard = 64;
static_assert(kClassGuard >= 2 * kMaxIntegerTightening,
              "a derived view value and a derived query value may each "
              "move by kMaxIntegerTightening");

// The class of one query's constants.
struct ConstantClass {
  // The query's signature with every constant written as its class.
  std::string signature;
  // The constants the class leaves free: every Int64 constant and every
  // string constant equal to no view constant of its component.
  std::vector<Value> free;

  // Whether a decision with this mask may be served to the whole class:
  // no constant of the mask lies within kClassGuard of a free constant
  // (for strings: equals one).
  bool Admits(const MetaRelation& mask) const;
};

// The order-relevant constants of one user's prepared meta-relations
// over one relation set: the components of their attributes and each
// component's view constants. Immutable once built; the authorization
// cache keeps one beside the prepared meta-relations, with the same
// read set.
class ConstantProfile {
 public:
  // `prepared` maps each relation of the set to its prepared
  // meta-relation (whose columns are the relation's attributes).
  static ConstantProfile Build(
      const std::map<std::string, std::shared_ptr<const MetaRelation>>&
          prepared);

  // The class of `query`'s constants, or nullopt when some constant has
  // none (the query then keeps its exact key). `query` ranges over the
  // relation set the profile was built for.
  std::optional<ConstantClass> ClassOf(const ConjunctiveQuery& query) const;

 private:
  // Relation -> the component of each of its attributes.
  std::map<std::string, std::vector<int>> component_;
  // Per component: its distinct view constants, sorted.
  std::vector<std::vector<Value>> constants_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_CONSTANT_CLASS_H_
