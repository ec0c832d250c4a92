// PERF-3: the paper's remark that the canonical products-then-selections
// strategy "is not necessarily optimal [...] for the actual relations,
// where optimality is essential, a different strategy may be
// implemented." Canonical versus vectorized (the production "different
// strategy") evaluation of the same join query; the gap widens
// quadratically with the row count.

#include <benchmark/benchmark.h>

#include "algebra/evaluator.h"
#include "algebra/vectorized.h"
#include "bench/bench_util.h"

namespace viewauth {
namespace {

using bench_util::MakeWorkload;

ConjunctiveQuery JoinQuery(const bench_util::Workload& w) {
  return w.Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "500");
}

void BM_CanonicalPlan(benchmark::State& state) {
  auto w = MakeWorkload(2, static_cast<int>(state.range(0)), 1);
  ConjunctiveQuery query = JoinQuery(*w);
  for (auto _ : state) {
    auto answer = EvaluateCanonical(query, w->db);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CanonicalPlan)->RangeMultiplier(4)->Range(16, 1024);

void BM_VectorizedPlan(benchmark::State& state) {
  auto w = MakeWorkload(2, static_cast<int>(state.range(0)), 1);
  ConjunctiveQuery query = JoinQuery(*w);
  for (auto _ : state) {
    auto answer = EvaluateVectorized(query, w->db);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_VectorizedPlan)->RangeMultiplier(4)->Range(16, 1024);

// The same contrast on the meta side is irrelevant: meta-relations hold a
// handful of tuples, which is why the paper keeps the simple strategy
// there. This benchmark quantifies the claim by timing the canonical
// meta-pipeline against the number of permitted views.
void BM_MetaCanonicalPipeline(benchmark::State& state) {
  auto w = MakeWorkload(2, /*rows=*/4,
                        /*views_per_relation=*/static_cast<int>(state.range(0)),
                        /*join_views=*/true);
  ConjunctiveQuery query = JoinQuery(*w);
  for (auto _ : state) {
    auto mask = w->authorizer->DeriveMask("u", query);
    benchmark::DoNotOptimize(mask);
  }
  state.counters["views_per_relation"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MetaCanonicalPipeline)->RangeMultiplier(2)->Range(1, 16);

// Index probe vs full scan: an equality-with-constant selection uses
// the relation's lazy hash index; compare against the canonical scan at
// growing row counts.
void BM_IndexedPointQuery(benchmark::State& state) {
  auto w = MakeWorkload(1, static_cast<int>(state.range(0)), 0);
  ConjunctiveQuery query =
      w->Query("retrieve (R0.A, R0.B) where R0.KEY = 7");
  // Warm the lazy index outside the timed region.
  auto warm = EvaluateVectorized(query, w->db);
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    auto answer = EvaluateVectorized(query, w->db);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_IndexedPointQuery)->RangeMultiplier(4)->Range(256, 16384);

void BM_ScanPointQuery(benchmark::State& state) {
  auto w = MakeWorkload(1, static_cast<int>(state.range(0)), 0);
  // A >= / <= pair pins the same key without triggering the index path.
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.A, R0.B) where R0.KEY >= 7 and R0.KEY <= 7");
  for (auto _ : state) {
    auto answer = EvaluateVectorized(query, w->db);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ScanPointQuery)->RangeMultiplier(4)->Range(256, 16384);

}  // namespace
}  // namespace viewauth

BENCHMARK_MAIN();
