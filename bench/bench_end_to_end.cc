// PERF-5: the end-to-end overhead of authorization. A full authorized
// retrieve (mask derivation + data evaluation + masking + permit
// inference) against the bare unauthorized evaluation of the same query,
// plus the mask-cache ablation: same-user retrieves with the
// authorization cache on vs off, both repeating one query and with fresh
// constants of one order class. Besides the google-benchmark output,
// the binary writes BENCH_mask_cache.json with the cached/uncached
// comparisons and the cache counters behind them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

// A warm class-hit retrieve through the front end whose decision carries
// about 30 permits, like perfbench's join_cold: three 4,096-row relations
// chained by A = KEY + 1, three B-range views per relation and three
// key-range join views per adjacent pair, with join_cold's bounds for
// its first user. Each iteration runs the next of 256 siblings (R0.KEY
// from 1,200 on: every constant sits between the same view bounds, so
// one derivation serves them all). This isolates the layer after the
// decision lookup: rendering the reply and the audit entry.
void BM_RetrieveManyPermits(benchmark::State& state) {
  constexpr int kRows = 4096;
  constexpr int kSiblings = 256;
  std::ostringstream script;
  for (int r = 0; r < 3; ++r) {
    const std::string rel = "R" + std::to_string(r);
    script << "relation " << rel << " (KEY int, A int, B int)\n";
    for (int k = 0; k < kRows; ++k) {
      script << "insert into " << rel << " values (" << k << ", " << k + 1
             << ", " << (k * 37) % 1000 << ")\n";
    }
    for (int v = 0; v < 3; ++v) {
      const int lo = v * 330;
      script << "view G" << r << "v" << v << " (" << rel << ".KEY, " << rel
             << ".A, " << rel << ".B) where " << rel << ".B >= " << lo
             << " and " << rel << ".B < " << lo + 400 << "\n"
             << "permit G" << r << "v" << v << " to u\n";
    }
  }
  for (int r = 0; r < 2; ++r) {
    const std::string a = "R" + std::to_string(r);
    const std::string b = "R" + std::to_string(r + 1);
    for (int v = 0; v < 3; ++v) {
      const int lo = v * 10923;
      script << "view J" << r << "v" << v << " (" << a << ".KEY, " << a
             << ".B, " << b << ".KEY, " << b << ".B) where " << a
             << ".A = " << b << ".KEY and " << a << ".KEY >= " << lo
             << " and " << a << ".KEY < " << lo + 8192 << "\n"
             << "permit J" << r << "v" << v << " to u\n";
    }
  }
  Engine engine;
  VIEWAUTH_CHECK(engine.ExecuteScript(script.str()).ok());
  std::vector<std::string> siblings;
  for (int i = 0; i < kSiblings; ++i) {
    const int c0 = 1200 + i;
    siblings.push_back(
        "retrieve (R0.KEY, R0.B, R1.KEY, R1.B, R2.KEY, R2.B) where "
        "R0.A = R1.KEY and R1.A = R2.KEY and R0.KEY = " +
        std::to_string(c0) + " and R1.KEY = " + std::to_string(c0 + 1) +
        " and R2.KEY = " + std::to_string(c0 + 2) + " as u");
  }
  auto first = engine.Retrieve(siblings[0]);
  VIEWAUTH_CHECK(first.ok());
  engine.ResetAuthzStats();
  size_t next = 0;
  for (auto _ : state) {
    auto out = engine.Execute(siblings[next]);
    benchmark::DoNotOptimize(out);
    next = (next + 1) % siblings.size();
  }
  const AuthzStats stats = engine.authz_stats();
  state.counters["permits"] = static_cast<double>(first->permits().size());
  state.counters["class_hit_ratio"] =
      static_cast<double>(stats.class_hits) /
      static_cast<double>(std::max(1LL, stats.retrieves));
}
BENCHMARK(BM_RetrieveManyPermits);

// The cache counters behind one run, as JSON members.
std::string StatsJson(const AuthzStats& stats, const std::string& indent) {
  std::ostringstream out;
  out << indent << "\"retrieves\": " << stats.retrieves << ",\n"
      << indent << "\"prepared_hits\": " << stats.prepared_hits << ",\n"
      << indent << "\"prepared_misses\": " << stats.prepared_misses << ",\n"
      << indent << "\"mask_hits\": " << stats.mask_hits << ",\n"
      << indent << "\"class_hits\": " << stats.class_hits << ",\n"
      << indent << "\"mask_misses\": " << stats.mask_misses << ",\n"
      << indent << "\"entries_invalidated\": " << stats.entries_invalidated
      << ",\n"
      << indent << "\"meta_tuples_pruned\": " << stats.meta_tuples_pruned
      << ",\n"
      << indent << "\"mask_derivation_micros\": "
      << stats.mask_derivation_micros << ",\n"
      << indent << "\"data_eval_micros\": " << stats.data_eval_micros
      << ",\n"
      << indent << "\"mask_apply_micros\": " << stats.mask_apply_micros
      << ",\n"
      << indent << "\"total_micros\": " << stats.total_micros << "\n";
  return out.str();
}

// The committed report: N same-user retrieves, uncached vs cached, with
// the cache counters that explain the difference, twice: N repeats of
// one query, and N queries of one shape with fresh constants that share
// their order class (R0.A's view bounds are 0, 50 and 100, so every
// constant from 200 up sits in the interval above 100), where the
// cached side derives S' once and serves the rest by class.
void WriteMaskCacheReport(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kRelations = 2;
  constexpr int kRows = 512;
  constexpr int kViewsPerRelation = 2;
  constexpr int kIterations = 200;

  auto w = MakeWorkload(kRelations, kRows, kViewsPerRelation,
                        /*join_views=*/true);
  auto query_with = [&](int constant) {
    return w->Query(
        "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= " +
        std::to_string(constant));
  };
  const std::vector<ConjunctiveQuery> repeated(kIterations, query_with(150));
  std::vector<ConjunctiveQuery> fresh;
  for (int i = 0; i < kIterations; ++i) fresh.push_back(query_with(200 + i));

  auto run = [&](const std::vector<ConjunctiveQuery>& queries,
                 const AuthorizationOptions& options) -> long long {
    const auto start = Clock::now();
    for (const ConjunctiveQuery& query : queries) {
      auto result = w->authorizer->Retrieve("u", query, options);
      VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
      benchmark::DoNotOptimize(result);
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start)
        .count();
  };
  struct Measured {
    long long uncached_micros = 0;
    long long cached_micros = 0;
    double speedup = 0;
    AuthzStats uncached_stats;  // wall times only: no cache traffic
    AuthzStats stats;
  };
  // The counters are reset before each side; the cache itself is not, so
  // the fresh-constants run finds the first run's prepared
  // meta-relations (but none of its decisions: 150 has no class).
  auto measure = [&](const std::vector<ConjunctiveQuery>& queries) {
    Measured m;
    AuthorizationOptions uncached;
    uncached.enable_authz_cache = false;
    w->cache.ResetStats();
    m.uncached_micros = run(queries, uncached);
    m.uncached_stats = w->cache.Snapshot();
    w->cache.ResetStats();
    AuthorizationOptions cached;  // defaults: cache on
    m.cached_micros = run(queries, cached);
    m.stats = w->cache.Snapshot();
    m.speedup = m.cached_micros > 0 ? static_cast<double>(m.uncached_micros) /
                                          m.cached_micros
                                    : 0.0;
    return m;
  };

  const Measured same = measure(repeated);
  // A full-access decision skips step 5, so mask_apply_micros stays 0.
  auto decided = w->authorizer->Retrieve("u", repeated.front());
  VIEWAUTH_CHECK(decided.ok()) << decided.status().ToString();
  const Measured classed = measure(fresh);

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
      << "  \"uncached_total_micros\": " << same.uncached_micros << ",\n"
      << "  \"cached_total_micros\": " << same.cached_micros << ",\n"
      << "  \"speedup\": " << same.speedup << ",\n"
      << "  \"cached_run_stats\": {\n"
      << StatsJson(same.stats, "    ") << "  },\n"
      << "  \"fresh_constants\": {\n"
      << "    \"query\": \"retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = "
         "R1.KEY and R0.A >= c, c = 200, 201, ..., "
      << 200 + kIterations - 1 << "\",\n"
      << "    \"uncached_total_micros\": " << classed.uncached_micros
      << ",\n"
      << "    \"cached_total_micros\": " << classed.cached_micros << ",\n"
      << "    \"speedup\": " << classed.speedup << ",\n"
      << "    \"uncached_run_stats\": {\n"
      << StatsJson(classed.uncached_stats, "      ") << "    },\n"
      << "    \"cached_run_stats\": {\n"
      << StatsJson(classed.stats, "      ") << "    }\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << path << ": repeated uncached="
            << same.uncached_micros << "us cached=" << same.cached_micros
            << "us speedup=" << same.speedup
            << "x; fresh constants uncached=" << classed.uncached_micros
            << "us cached=" << classed.cached_micros
            << "us speedup=" << classed.speedup << "x\n";
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
