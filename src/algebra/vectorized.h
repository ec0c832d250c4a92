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
// projection, and only for the rows a caller needs: the authorizer's
// step 5 masks the row ids themselves (EvaluateRowIds) and writes only
// the cells it delivers, into column images (storage/column_answer.h).
// Every selection runs over columnar batches (storage/column_batch.h):
// ~1024-row windows are gathered into typed column arrays once, each
// predicate atom runs as a branch-light kernel that compacts a selection
// vector, and the ExecContext is ticked once per batch instead of once
// per row.
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
#include "storage/column_answer.h"
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

// S's answer before its final projection: one row of base-relation row
// ids per answer row. Row r names row ids[r * stride + slot_of_atom[a]]
// of base[a] for each query atom a. The relations are borrowed: the
// answer must not outlive the database it was evaluated against.
struct RowIdAnswer {
  std::vector<const Relation*> base;
  std::vector<int> slot_of_atom;
  std::vector<uint32_t> ids;  // row-major, `stride` entries per row
  int stride = 1;

  size_t size() const { return ids.size() / static_cast<size_t>(stride); }
  // Attribute `ref.attr` of atom `ref.atom` in row `r`.
  const Value& cell(size_t r, const ColumnRef& ref) const {
    const size_t slot = static_cast<size_t>(slot_of_atom[ref.atom]);
    return base[ref.atom]
        ->row(ids[r * static_cast<size_t>(stride) + slot])
        .at(ref.attr);
  }
};

// Every row of `rel`, in order, as a one-atom row-id answer.
RowIdAnswer AllRowsOf(const Relation& rel);

// Phases 1-2 of the plan: scans and joins over row ids, with no row
// materialized. The rows are exactly EvaluateVectorized's answer rows,
// in its order: when the query ProjectsDistinctRows every combination
// is kept; otherwise each row whose projected cells equal an earlier
// row's is dropped, under the hash and Value equality of Relation's
// identity index. A non-null `ctx` governs the evaluation with
// per-batch ticking; the run aborts with the context's status once it
// trips.
Result<RowIdAnswer> EvaluateRowIds(const ConjunctiveQuery& query,
                                   const DatabaseInstance& db,
                                   EvalStats* stats = nullptr,
                                   ExecContext* ctx = nullptr);

// Drops each row of `rows` whose cells under `targets` equal an earlier
// row's, in place. The cells hash as their Tuple would and compare with
// Value equality, so the rows kept are the ones Relation's identity
// index would keep, in their order. EvaluateRowIds' distinct projection,
// and the extended-mask flow's narrowing of the all-columns rows to the
// query's targets. Returns false once the governor trips.
bool KeepFirstOfEachProjection(const std::vector<ColumnRef>& targets,
                               RowIdAnswer* rows, ExecContext* ctx);

// Phase 3, the plan's one materialization point: the rows of `rows`
// projected onto `targets`, in order, as a relation over `schema`. The
// rows must be distinct under the projection (EvaluateRowIds' are). A
// non-null `ctx` ticks once per batch window and stops the projection
// once tripped; callers must check ctx->status() before using the
// (then partial) result.
Relation MaterializeRowIds(const RowIdAnswer& rows,
                           const std::vector<ColumnRef>& targets,
                           RelationSchema schema, EvalStats* stats = nullptr,
                           ExecContext* ctx = nullptr);

// MaterializeRowIds into column images: the same rows, the same order
// and the same governance, with each cell appended to its column's image
// instead of a per-row Tuple. Full access delivers S's answer this way.
ColumnAnswer GatherRowIds(const RowIdAnswer& rows,
                          const std::vector<ColumnRef>& targets,
                          RelationSchema schema, EvalStats* stats = nullptr,
                          ExecContext* ctx = nullptr);

// EvaluateRowIds followed by MaterializeRowIds onto the query's
// targets.
Result<Relation> EvaluateVectorized(const ConjunctiveQuery& query,
                                    const DatabaseInstance& db,
                                    const std::string& result_name = "ANSWER",
                                    EvalStats* stats = nullptr,
                                    ExecContext* ctx = nullptr);

}  // namespace viewauth

#endif  // VIEWAUTH_ALGEBRA_VECTORIZED_H_
