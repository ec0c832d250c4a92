// Relational algebra plans over the three conjunctive-family operators:
// product, selection, projection (paper Section 2: conjunctive calculus ==
// product/selection/projection algebra).
//
// The canonical plan shape follows the paper's Section 4 strategy for
// meta-relations — all products first, then selections, then projections —
// and the same shape is reusable on the data side, where it serves as the
// oracle. The vectorized plan (vectorized.h) implements the "different
// strategy" the paper suggests for actual relations.

#ifndef VIEWAUTH_ALGEBRA_PLAN_H_
#define VIEWAUTH_ALGEBRA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "calculus/conjunctive_query.h"
#include "common/result.h"
#include "predicate/predicate.h"

namespace viewauth {

enum class PlanNodeKind { kScan, kProduct, kSelection, kProjection };

struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kScan;

  // kScan
  std::string relation;
  // kProduct
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
  // kSelection / kProjection share `child`.
  std::unique_ptr<PlanNode> child;
  ConjunctivePredicate predicate;   // kSelection
  std::vector<int> columns;         // kProjection: flat indices to keep

  static std::unique_ptr<PlanNode> Scan(std::string relation_name);
  static std::unique_ptr<PlanNode> Product(std::unique_ptr<PlanNode> l,
                                           std::unique_ptr<PlanNode> r);
  static std::unique_ptr<PlanNode> Selection(std::unique_ptr<PlanNode> input,
                                             ConjunctivePredicate pred);
  static std::unique_ptr<PlanNode> Projection(std::unique_ptr<PlanNode> input,
                                              std::vector<int> cols);

  // Indented EXPLAIN-style rendering.
  std::string ToString(int indent = 0) const;
};

// Builds the canonical product->selection->projection plan of `query`.
// The product is left-deep over the query's atoms in atom order; the
// selection carries every condition (over flat product columns); the
// projection keeps the target columns in target order.
std::unique_ptr<PlanNode> BuildCanonicalPlan(const ConjunctiveQuery& query);

}  // namespace viewauth

#endif  // VIEWAUTH_ALGEBRA_PLAN_H_
