// PERF-1: cost of deriving the mask A' as the number of permitted views
// and the number of relations in the query grow. The paper argues the
// meta-relations are "relatively small", making the simple canonical
// strategy affordable — these benchmarks quantify that. DeriveMask
// stores no decision, so every iteration derives; only the prepared
// per-relation meta-relations are cached (BM_DeriveMaskSelfJoinCache
// turns that off).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace viewauth {
namespace {

using bench_util::MakeWorkload;
using bench_util::Workload;

void BM_DeriveMaskVsViewCount(benchmark::State& state) {
  const int views = static_cast<int>(state.range(0));
  auto w = MakeWorkload(/*relations=*/1, /*rows=*/16, views);
  ConjunctiveQuery query = w->Query("retrieve (R0.KEY, R0.A) "
                                    "where R0.A >= 120");
  for (auto _ : state) {
    auto mask = w->authorizer->DeriveMask("u", query);
    benchmark::DoNotOptimize(mask);
  }
  state.counters["views"] = views;
}
BENCHMARK(BM_DeriveMaskVsViewCount)->RangeMultiplier(2)->Range(1, 64);

void BM_DeriveMaskVsQueryAtoms(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  auto w = MakeWorkload(/*relations=*/4, /*rows=*/16,
                        /*views_per_relation=*/2, /*join_views=*/true);
  std::string text = "retrieve (R0.KEY, R0.A)";
  std::string where;
  for (int a = 1; a < atoms; ++a) {
    where += where.empty() ? " where " : " and ";
    where += "R" + std::to_string(a - 1) + ".KEY = R" + std::to_string(a) +
             ".KEY";
  }
  ConjunctiveQuery query = w->Query(text + where);
  for (auto _ : state) {
    auto mask = w->authorizer->DeriveMask("u", query);
    benchmark::DoNotOptimize(mask);
  }
  state.counters["atoms"] = atoms;
}
BENCHMARK(BM_DeriveMaskVsQueryAtoms)->DenseRange(1, 4);

void BM_DeriveMaskRefinementsOff(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2, /*rows=*/16,
                        /*views_per_relation=*/4, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "200");
  AuthorizationOptions options;
  options.four_case = state.range(0) != 0;
  options.padding = state.range(0) != 0;
  options.self_joins = state.range(0) != 0;
  for (auto _ : state) {
    auto mask = w->authorizer->DeriveMask("u", query, options);
    benchmark::DoNotOptimize(mask);
  }
  state.counters["refined"] = state.range(0);
}
BENCHMARK(BM_DeriveMaskRefinementsOff)->Arg(0)->Arg(1);

// The paper-endorsed self-join cache ("stored with the original view
// definitions, until these definitions are modified"): repeat-query cost
// with and without it. DeriveMask never stores decisions, so the cache
// switch toggles the prepared meta-relations alone.
void BM_DeriveMaskSelfJoinCache(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/1, /*rows=*/16, /*views=*/16);
  ConjunctiveQuery query =
      w->Query("retrieve (R0.KEY, R0.A) where R0.A >= 120");
  AuthorizationOptions options;
  options.enable_authz_cache = state.range(0) != 0;
  for (auto _ : state) {
    auto mask = w->authorizer->DeriveMask("u", query, options);
    benchmark::DoNotOptimize(mask);
  }
  state.counters["cached"] = state.range(0);
}
BENCHMARK(BM_DeriveMaskSelfJoinCache)->Arg(0)->Arg(1);

}  // namespace
}  // namespace viewauth

BENCHMARK_MAIN();
