// Evaluators for relational algebra plans over a DatabaseInstance.
//
// EvaluatePlan executes a plan tree literally (materializing every
// intermediate result) — the canonical strategy the paper prescribes for
// meta-relations, also usable on data, where it is the oracle the
// production plan is checked against. EvaluateVectorized (vectorized.h)
// is the production data-side strategy.

#ifndef VIEWAUTH_ALGEBRA_EVALUATOR_H_
#define VIEWAUTH_ALGEBRA_EVALUATOR_H_

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "storage/relation.h"

namespace viewauth {

// Counters exposed for benchmarking and plan comparison.
//
// `rows_scanned` means "rows fetched from storage and examined" in both
// strategies: a full scan counts every row of the relation, an index
// probe or binary-searched range counts exactly the rows the index
// yields. This makes the counter comparable across canonical and
// vectorized runs of the same query (asserted by tests/algebra_test.cc
// and tests/vectorized_test.cc).
struct EvalStats {
  long long rows_scanned = 0;
  long long intermediate_rows = 0;  // rows produced by non-root operators
  long long output_rows = 0;
  // Tuple objects constructed by the vectorized plan, which materializes
  // only at the final projection, MaterializeRowIds (column images
  // gathered from row ids build none; the canonical plan, which
  // materializes every intermediate, does not count them).
  long long tuples_materialized = 0;
  // Column batches processed by the vectorized plan: scan windows,
  // join-condition windows, and final-projection windows.
  long long batches_evaluated = 0;
  // Compiled-mask batch kernels applied by the fused mask path (one per
  // relevant mask tuple per answer batch).
  long long mask_batch_applies = 0;
};

// Cheap O(1) per-row byte estimate used by the execution governor's byte
// budget: container overhead plus the variant cells. String heap storage
// is deliberately excluded — the budget bounds row materialization, and a
// constant-time estimate keeps the governed hot path within the
// bench_governor overhead gate.
inline long long ApproxTupleBytes(int arity) {
  return 16 +
         static_cast<long long>(arity) * static_cast<long long>(sizeof(Value));
}

// Executes `plan` against `db`. The resulting relation has the schema
// `output_schema` (which must match the plan's output arity). `stats` may
// be null. A non-null `ctx` governs the evaluation: rows and bytes are
// charged as intermediates are produced, and the run aborts with the
// context's status once it trips.
Result<Relation> EvaluatePlan(const PlanNode& plan, const DatabaseInstance& db,
                              const RelationSchema& output_schema,
                              EvalStats* stats = nullptr,
                              ExecContext* ctx = nullptr);

// Convenience: canonical plan of `query`, evaluated; the output schema is
// derived from the query's targets and named `result_name`.
Result<Relation> EvaluateCanonical(const ConjunctiveQuery& query,
                                   const DatabaseInstance& db,
                                   const std::string& result_name = "ANSWER",
                                   EvalStats* stats = nullptr,
                                   ExecContext* ctx = nullptr);

}  // namespace viewauth

#endif  // VIEWAUTH_ALGEBRA_EVALUATOR_H_
