// PERF-5: the end-to-end overhead of authorization. A full authorized
// retrieve (mask derivation + data evaluation + masking + permit
// inference) against the bare unauthorized evaluation of the same query,
// plus the mask-cache ablation: repeated same-user retrieves with the
// authorization cache on vs off. Besides the google-benchmark output,
// the binary writes BENCH_mask_cache.json with the cached/uncached
// comparison and the cache counters behind it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "algebra/vectorized.h"
#include "bench/bench_util.h"
#include "engine/engine.h"

namespace viewauth {
namespace {

using bench_util::MakeWorkload;

void BM_AuthorizedRetrieve(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2,
                        /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/2, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "150");
  for (auto _ : state) {
    auto result = w->authorizer->Retrieve("u", query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AuthorizedRetrieve)->RangeMultiplier(4)->Range(64, 4096);

void BM_UnauthorizedEvaluation(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2,
                        /*rows=*/static_cast<int>(state.range(0)),
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
BENCHMARK(BM_UnauthorizedEvaluation)->RangeMultiplier(4)->Range(64, 4096);

// Repeated same-user retrieves: after the first run fills the prepared
// and mask caches, later runs skip S' entirely.
void BM_RepeatedRetrieveCached(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2,
                        /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/2, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "150");
  AuthorizationOptions options;
  for (auto _ : state) {
    auto result = w->authorizer->Retrieve("u", query, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RepeatedRetrieveCached)->RangeMultiplier(4)->Range(64, 4096);

void BM_RepeatedRetrieveUncached(benchmark::State& state) {
  auto w = MakeWorkload(/*relations=*/2,
                        /*rows=*/static_cast<int>(state.range(0)),
                        /*views_per_relation=*/2, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "150");
  AuthorizationOptions options;
  options.enable_authz_cache = false;
  for (auto _ : state) {
    auto result = w->authorizer->Retrieve("u", query, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RepeatedRetrieveUncached)->RangeMultiplier(4)->Range(64, 4096);

void BM_EngineStatementRoundTrip(benchmark::State& state) {
  // Full front-end path: parse, authorize, evaluate, mask, render.
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
    view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)
    permit SAE to Brown
  )");
  VIEWAUTH_CHECK(setup.ok());
  for (int i = 0; i < 256; ++i) {
    VIEWAUTH_CHECK(engine
                       .Execute("insert into EMPLOYEE values (e" +
                                std::to_string(i) + ", t, " +
                                std::to_string(20000 + i) + ")")
                       .ok());
  }
  for (auto _ : state) {
    auto out = engine.Execute(
        "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Brown");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EngineStatementRoundTrip);

// The committed report: N repeated same-user retrieves, uncached vs
// cached, with the cache counters that explain the difference.
void WriteMaskCacheReport(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kRelations = 2;
  constexpr int kRows = 512;
  constexpr int kViewsPerRelation = 2;
  constexpr int kIterations = 200;

  auto w = MakeWorkload(kRelations, kRows, kViewsPerRelation,
                        /*join_views=*/true);
  ConjunctiveQuery query = w->Query(
      "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= "
      "150");

  auto run = [&](const AuthorizationOptions& options) -> long long {
    const auto start = Clock::now();
    for (int i = 0; i < kIterations; ++i) {
      auto result = w->authorizer->Retrieve("u", query, options);
      VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
      benchmark::DoNotOptimize(result);
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start)
        .count();
  };

  AuthorizationOptions uncached;
  uncached.enable_authz_cache = false;
  const long long uncached_micros = run(uncached);

  w->cache.ResetStats();
  AuthorizationOptions cached;  // defaults: cache on
  const long long cached_micros = run(cached);
  const AuthzStats stats = w->cache.Snapshot();
  // A full-access decision skips step 5, so mask_apply_micros stays 0.
  auto decided = w->authorizer->Retrieve("u", query, cached);
  VIEWAUTH_CHECK(decided.ok()) << decided.status().ToString();

  const double speedup =
      cached_micros > 0
          ? static_cast<double>(uncached_micros) / cached_micros
          : 0.0;

  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"repeated same-user authorized retrieve\",\n"
      << "  \"workload\": {\"relations\": " << kRelations
      << ", \"rows\": " << kRows
      << ", \"views_per_relation\": " << kViewsPerRelation
      << ", \"join_views\": true},\n"
      << "  \"query\": \"retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = "
         "R1.KEY and R0.A >= 150\",\n"
      << "  \"iterations\": " << kIterations << ",\n"
      << "  \"full_access\": " << (decided->full_access ? "true" : "false")
      << ",\n"
      << "  \"uncached_total_micros\": " << uncached_micros << ",\n"
      << "  \"cached_total_micros\": " << cached_micros << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"cached_run_stats\": {\n"
      << "    \"retrieves\": " << stats.retrieves << ",\n"
      << "    \"prepared_hits\": " << stats.prepared_hits << ",\n"
      << "    \"prepared_misses\": " << stats.prepared_misses << ",\n"
      << "    \"mask_hits\": " << stats.mask_hits << ",\n"
      << "    \"mask_misses\": " << stats.mask_misses << ",\n"
      << "    \"entries_invalidated\": " << stats.entries_invalidated
      << ",\n"
      << "    \"meta_tuples_pruned\": " << stats.meta_tuples_pruned << ",\n"
      << "    \"mask_derivation_micros\": " << stats.mask_derivation_micros
      << ",\n"
      << "    \"data_eval_micros\": " << stats.data_eval_micros << ",\n"
      << "    \"mask_apply_micros\": " << stats.mask_apply_micros << ",\n"
      << "    \"total_micros\": " << stats.total_micros << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << path << ": uncached=" << uncached_micros
            << "us cached=" << cached_micros << "us speedup=" << speedup
            << "x\n";
}

}  // namespace
}  // namespace viewauth

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  viewauth::WriteMaskCacheReport("BENCH_mask_cache.json");
  return 0;
}
