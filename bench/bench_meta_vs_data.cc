// PERF-2: the paper's central efficiency claim — the meta-relations stay
// small, so deriving the mask A' costs (almost) nothing compared to
// evaluating the answer A as the data grows. The mask derivation time
// must be flat in the row count while data evaluation scales with it.

#include <benchmark/benchmark.h>

#include "algebra/vectorized.h"
#include "bench/bench_util.h"

namespace viewauth {
namespace {

using bench_util::MakeWorkload;

void BM_MaskDerivation(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2, /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/2, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "150");
  for (auto _ : state) {
    auto mask = w->authorizer->DeriveMask("u", query);
    benchmark::DoNotOptimize(mask);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MaskDerivation)->RangeMultiplier(4)->Range(64, 16384);

void BM_DataEvaluation(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2, /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/2, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "150");
  for (auto _ : state) {
    auto answer = EvaluateVectorized(query, w->db);
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DataEvaluation)->RangeMultiplier(4)->Range(64, 16384);

}  // namespace
}  // namespace viewauth

BENCHMARK_MAIN();
