// PERF-4: mask application cost versus answer size — the production
// step 5, the row-id kernel (Authorizer::ApplyWideMaskVectorized over
// S's row ids) writing the delivered cells into column images — and the
// cost of the self-join precomputation the paper suggests caching "with
// the original view definitions".

#include <benchmark/benchmark.h>

#include <numeric>

#include "algebra/vectorized.h"
#include "authz/compiled_mask.h"
#include "bench/bench_util.h"
#include "meta/self_join.h"

namespace viewauth {
namespace {

using bench_util::MakeWorkload;

// Times step 5 as RetrieveGoverned runs it on partial access: S's row
// ids for `retrieve_text`, masked by the compiled mask of user u.
void RunKernel(benchmark::State& state, bench_util::Workload* w,
               const std::string& retrieve_text) {
  ConjunctiveQuery query = w->Query(retrieve_text);
  auto mask = w->authorizer->DeriveMask("u", query);
  VIEWAUTH_CHECK(mask.ok());
  auto ids = EvaluateRowIds(query, w->db);
  VIEWAUTH_CHECK(ids.ok());
  const RelationSchema schema = query.OutputSchema("ANSWER").value();
  std::vector<int> delivered(query.targets().size());
  std::iota(delivered.begin(), delivered.end(), 0);
  const CompiledMask compiled = CompiledMask::Compile(*mask);
  int rows = 0;
  for (auto _ : state) {
    ColumnAnswer masked = Authorizer::ApplyWideMaskVectorized(
        *ids, query.targets(), compiled, delivered, schema,
        /*drop_fully_masked_rows=*/true);
    rows = masked.size();
    benchmark::DoNotOptimize(masked);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
  state.counters["delivered"] = rows;
  state.counters["mask_tuples"] = mask->size();
}

// Full pattern: every mask tuple projects every requested column, so
// each delivered row is its S row and the kernel's rule path skips the
// duplicate filter. Three solver-backed tuples (A >= 0, 50, 100).
void BM_ApplyMaskFullPattern(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/1,
                        /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/3);
  RunKernel(state, w.get(), "retrieve (R0.KEY, R0.A, R0.B)");
}
BENCHMARK(BM_ApplyMaskFullPattern)->RangeMultiplier(4)->Range(64, 16384);

// Partial pattern: no view grants C, so every delivered row withholds a
// cell and the kernel's hash path filters duplicates.
void BM_ApplyMaskPartialPattern(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/1,
                        /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/3);
  RunKernel(state, w.get(), "retrieve (R0.KEY, R0.A, R0.C)");
}
BENCHMARK(BM_ApplyMaskPartialPattern)->RangeMultiplier(4)->Range(64, 16384);

void BM_ApplyMaskConstantOnly(benchmark::State& state) {
  // A mask of constant/blank cells only runs constant-comparison kernels
  // (no variable groups, no solver involvement).
  auto w = MakeWorkload(/*relations=*/1,
                        /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/0);
  // The view pins B to a constant in its target list, so the mask's B
  // cell is Const(500) — the constant-comparison fast path — while the
  // query itself keeps every row in the answer.
  auto stmt = ParseStatement(
      "view CONSTV (R0.KEY, R0.A, R0.B) where R0.B = 500");
  VIEWAUTH_CHECK(stmt.ok());
  VIEWAUTH_CHECK(w->catalog->DefineView(std::get<ViewStmt>(*stmt)).ok());
  VIEWAUTH_CHECK(w->catalog->Permit("CONSTV", "u").ok());
  RunKernel(state, w.get(), "retrieve (R0.KEY, R0.A, R0.B)");
}
BENCHMARK(BM_ApplyMaskConstantOnly)->RangeMultiplier(4)->Range(64, 16384);

void BM_SelfJoinInference(benchmark::State& state) {
  const int views = static_cast<int>(state.range(0));
  auto w = MakeWorkload(/*relations=*/1, /*rows=*/4, views);
  ConjunctiveQuery query = w->Query("retrieve (R0.KEY, R0.A)");
  AuthorizationOptions no_self_joins;
  no_self_joins.self_joins = false;
  auto base = w->authorizer->PrunedMetaRelation("u", query, 0, no_self_joins);
  VIEWAUTH_CHECK(base.ok());
  const RelationSchema& schema =
      *w->db.schema().GetRelation("R0").value();
  for (auto _ : state) {
    MetaRelation extended = WithSelfJoins(*base, schema);
    benchmark::DoNotOptimize(extended);
  }
  state.counters["views"] = views;
}
BENCHMARK(BM_SelfJoinInference)->RangeMultiplier(2)->Range(2, 32);

}  // namespace
}  // namespace viewauth

BENCHMARK_MAIN();
