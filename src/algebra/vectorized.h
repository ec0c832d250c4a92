// Vectorized columnar evaluation of conjunctive queries (DESIGN.md §17):
// the production data plan, the "different strategy" the paper suggests
// for actual relations (end of Section 4.1).
//
// The plan pushes single-atom selections onto scans, orders joins
// greedily (smallest input first, equality-connected atoms preferred),
// and hash-joins on equality conditions. Intermediate results are rows
// of base-relation *indices* (one uint32_t per joined atom); equality
// join keys hash in place over the referenced Values
// (storage/key_view.h); tuples materialize once, at the final
// projection. Every selection runs over columnar batches
// (storage/column_batch.h): ~1024-row windows are gathered into typed
// column arrays once, each predicate atom runs as a branch-light kernel
// that compacts a selection vector, and the ExecContext is ticked once
// per batch instead of once per row.
//
// The answer relation is the same as EvaluateCanonical's (the
// differential tier asserts it), so the paper's Figure 2 commutative
// diagram is unaffected by how the S data plan is executed.

#ifndef VIEWAUTH_ALGEBRA_VECTORIZED_H_
#define VIEWAUTH_ALGEBRA_VECTORIZED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/evaluator.h"
#include "calculus/conjunctive_query.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "predicate/predicate.h"
#include "storage/relation.h"

namespace viewauth {

// Batched counterpart of SelectRowIds (scan.h): identical results and
// identical rows_scanned accounting. Index-served predicates delegate
// to SelectRowIds (an index probe yields too few rows to batch); full
// scans run the predicate atoms as per-column kernels over dense
// batches, charging the governor once per batch. Exposed for tests.
std::vector<uint32_t> VectorizedSelectRowIds(const Relation& rel,
                                             const RelationSchema& schema,
                                             const ConjunctivePredicate& pred,
                                             EvalStats* stats,
                                             ExecContext* ctx = nullptr);

// A non-null `ctx` governs the evaluation with per-batch ticking; the
// run aborts with the context's status once it trips.
Result<Relation> EvaluateVectorized(const ConjunctiveQuery& query,
                                    const DatabaseInstance& db,
                                    const std::string& result_name = "ANSWER",
                                    EvalStats* stats = nullptr,
                                    ExecContext* ctx = nullptr);

}  // namespace viewauth

#endif  // VIEWAUTH_ALGEBRA_VECTORIZED_H_
