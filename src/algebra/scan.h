// Index-aware single-relation scans for the data-side evaluation
// strategies (evaluator.cc and vectorized.cc).
//
// SelectRowIds returns the ids (Relation::row) of the rows matching a
// conjunctive predicate, using the relation's lazy hash index for an
// exact-typed equality-with-constant atom, or its per-chunk ordered
// indexes for an exact-typed one-sided range atom, and falling back to a
// full scan otherwise.
//
// rows_scanned accounting contract (asserted by tests/algebra_test.cc
// and tests/vectorized_test.cc): the counter means "rows fetched from
// storage and examined" in both strategies — a full scan counts every
// row of the relation, an index probe or binary-searched range counts
// exactly the rows the index yields (each of which is fetched and tested
// against the residual predicate). Both plans charge through
// ChargeScannedRows below so the contract lives in one place.
//
// When `ctx` is non-null, each examined row ticks the execution governor
// and the scan stops early once the context trips; callers must check
// ctx->status() before trusting the (then partial) result.

#ifndef VIEWAUTH_ALGEBRA_SCAN_H_
#define VIEWAUTH_ALGEBRA_SCAN_H_

#include <cstdint>
#include <vector>

#include "algebra/evaluator.h"
#include "common/exec_context.h"
#include "predicate/predicate.h"
#include "schema/schema.h"
#include "storage/relation.h"

namespace viewauth {

// The single implementation of the rows_scanned contract: charges
// `rows` examined rows (and optionally `bytes`) against the stats
// block and the execution governor. Returns false once the governor
// has tripped; callers must stop examining rows then. The canonical
// plan and SelectRowIds call it per row, the vectorized plan once per
// batch.
inline bool ChargeScannedRows(EvalStats* stats, ExecMeter* meter,
                              long long rows, long long bytes = 0) {
  if (stats != nullptr) stats->rows_scanned += rows;
  return meter == nullptr || meter->Tick(rows, bytes);
}

// True when SelectRowIds would serve `pred` from a hash or ordered
// index (an exact-typed equality-with-constant or one-sided range
// atom) instead of a full scan. The vectorized plan uses this to
// delegate index-served scans — where batching has nothing to gather —
// to SelectRowIds.
bool HasIndexableAtom(const RelationSchema& schema,
                      const ConjunctivePredicate& pred);

std::vector<uint32_t> SelectRowIds(const Relation& rel,
                                   const RelationSchema& schema,
                                   const ConjunctivePredicate& pred,
                                   EvalStats* stats,
                                   ExecContext* ctx = nullptr);

}  // namespace viewauth

#endif  // VIEWAUTH_ALGEBRA_SCAN_H_
