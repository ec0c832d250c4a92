// PERF-8: dependency-tracked selective cache invalidation under write
// pressure.
//
// A multi-tenant workload — twelve users, each with their own stack of
// range views over two 300-row relations — runs a retrieve stream with
// a configurable fraction of interleaved entitlement mutations (a
// permit/deny toggle on one rotating user's view). With the PR-1
// generation-counter scheme every mutation wiped the whole cache, so at
// a 10% write mix the cache was near-useless; with dependency-tracked
// invalidation only the mutated user's entries drop and the other
// eleven tenants keep riding their cached masks.
//
// For each write mix (0%, 1%, 10%) the identical operation sequence is
// executed twice against independently built but identical workloads:
// once with the authorization cache, once without. The figure of merit
// is speedup = uncached_micros / cached_micros per mix.
//
// Modes:
//   bench_invalidation           all three mixes; writes
//                                BENCH_invalidation.json (run from the
//                                repo root of a Release build)
//   bench_invalidation --smoke   the 10%-writes mix only; exits 1 if
//                                the cached run is not at least 2x
//                                faster (the check.sh regression gate)

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "authz/authorizer.h"
#include "authz/authz_cache.h"
#include "calculus/conjunctive_query.h"
#include "common/logging.h"
#include "meta/view_store.h"
#include "parser/parser.h"
#include "storage/relation.h"

namespace viewauth {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kUsers = 12;
constexpr int kRows = 300;
// Per relation side; derivation cost grows superlinearly in the view
// count (pairwise subsumption, self-joins) while the staggered ranges
// collapse to a small mask, so a deeper stack widens the gap between a
// cache hit and a from-scratch derivation without inflating apply cost.
constexpr int kViewsPerUser = 6;

std::string UserName(int u) { return "u" + std::to_string(u); }

// The multi-tenant state: R0 and R1, and per user three staggered range
// views over each, all granted. The first R0 view of each user doubles
// as the mutation target its permit/deny toggle churns.
struct Tenancy {
  DatabaseInstance db;
  std::unique_ptr<ViewCatalog> catalog;
  std::unique_ptr<AuthzCache> cache;  // null for the uncached mode
  std::unique_ptr<Authorizer> authorizer;
  std::vector<ConjunctiveQuery> queries;  // one per user
  std::vector<bool> toggle_granted;       // per user
};

ConjunctiveQuery ParseQuery(const DatabaseInstance& db,
                            const std::string& text) {
  auto stmt = ParseStatement(text);
  VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
  auto query = ConjunctiveQuery::FromRetrieve(db.schema(),
                                              std::get<RetrieveStmt>(*stmt));
  VIEWAUTH_CHECK(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

std::string ToggleView(int u) { return "T" + std::to_string(u); }

std::unique_ptr<Tenancy> MakeTenancy(bool with_cache) {
  auto t = std::make_unique<Tenancy>();
  for (int r = 0; r < 2; ++r) {
    std::string name = "R" + std::to_string(r);
    auto schema = RelationSchema::Make(name,
                                       {{"KEY", ValueType::kInt64},
                                        {"A", ValueType::kInt64},
                                        {"B", ValueType::kInt64},
                                        {"C", ValueType::kInt64}},
                                       {0});
    VIEWAUTH_CHECK(schema.ok());
    VIEWAUTH_CHECK(t->db.CreateRelation(std::move(*schema)).ok());
    for (int i = 0; i < kRows; ++i) {
      VIEWAUTH_CHECK(
          t->db.Insert(name, Tuple({Value::Int64(i),
                                    Value::Int64((7 * i + 13 * r) % 1000),
                                    Value::Int64((11 * i) % 1000),
                                    Value::Int64((3 * i) % 1000)}))
              .ok());
    }
  }

  t->catalog = std::make_unique<ViewCatalog>(&t->db.schema());
  auto define = [&t](const std::string& name, const std::string& text,
                     const std::string& user) {
    auto stmt = ParseStatement(text);
    VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
    VIEWAUTH_CHECK(t->catalog->DefineView(std::get<ViewStmt>(*stmt)).ok());
    VIEWAUTH_CHECK(t->catalog->Permit(name, user).ok());
  };
  for (int u = 0; u < kUsers; ++u) {
    const std::string user = UserName(u);
    // The toggle view: churned by the write mix, scope {R0}.
    define(ToggleView(u),
           "view " + ToggleView(u) + " (R0.KEY, R0.A) where R0.A >= " +
               std::to_string(40 + 10 * u),
           user);
    for (int v = 0; v < kViewsPerUser; ++v) {
      for (int r = 0; r < 2; ++r) {
        const std::string rel = "R" + std::to_string(r);
        const std::string name = "V" + std::to_string(u) + "_" +
                                 std::to_string(r) + "_" + std::to_string(v);
        define(name,
               "view " + name + " (" + rel + ".KEY, " + rel + ".A, " + rel +
                   ".B) where " + rel +
                   ".A >= " + std::to_string(30 * v + 5 * u),
               user);
      }
    }
    t->queries.push_back(
        ParseQuery(t->db, "retrieve (R0.KEY, R0.A, R0.B) where R0.A >= " +
                              std::to_string(10 + u)));
  }
  t->toggle_granted.assign(kUsers, true);

  if (with_cache) {
    t->cache = std::make_unique<AuthzCache>();
    t->authorizer =
        std::make_unique<Authorizer>(&t->db, t->catalog.get(), t->cache.get());
  } else {
    t->authorizer = std::make_unique<Authorizer>(&t->db, t->catalog.get());
  }
  return t;
}

struct MixResult {
  int write_permille = 0;  // writes per 1000 operations
  int operations = 0;
  int mutations = 0;
  long long cached_micros = 0;
  long long uncached_micros = 0;
  double speedup = 0;
  AuthzStats stats;  // cached run's counters
};

// Runs the deterministic operation sequence once against `t` and
// returns the wall time of the retrieve stream. Operation i belongs to
// user i % kUsers; every `mutate_every`-th operation (0 = never) first
// toggles that user's churn view grant, then retrieves.
long long RunSequence(Tenancy* t, int operations, int mutate_every,
                      const AuthorizationOptions& options, int* mutations) {
  long long sink = 0;
  long long micros = 0;
  for (int i = 0; i < operations; ++i) {
    const int u = i % kUsers;
    if (mutate_every > 0 && i % mutate_every == mutate_every - 1) {
      const std::string view = ToggleView(u);
      if (t->toggle_granted[u]) {
        VIEWAUTH_CHECK(t->catalog->Deny(view, UserName(u)).ok());
      } else {
        VIEWAUTH_CHECK(t->catalog->Permit(view, UserName(u)).ok());
      }
      t->toggle_granted[u] = !t->toggle_granted[u];
      if (mutations != nullptr) ++*mutations;
    }
    const auto start = Clock::now();
    auto result = t->authorizer->Retrieve(UserName(u), t->queries[u], options);
    micros += std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - start)
                  .count();
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
    sink += static_cast<long long>(result->answer.size());
  }
  if (sink < 0) std::cerr << sink;  // keep the loop observable
  return micros;
}

MixResult MeasureMix(int write_permille, int operations) {
  AuthorizationOptions cached_options;
  AuthorizationOptions uncached_options = cached_options;
  uncached_options.enable_authz_cache = false;

  const int mutate_every =
      write_permille == 0 ? 0 : 1000 / write_permille;

  MixResult result;
  result.write_permille = write_permille;
  result.operations = operations;

  auto cached = MakeTenancy(/*with_cache=*/true);
  // Warm one round so the steady-state stream is measured.
  RunSequence(cached.get(), kUsers, 0, cached_options, nullptr);
  cached->cache->ResetStats();
  result.cached_micros = RunSequence(cached.get(), operations, mutate_every,
                                     cached_options, &result.mutations);
  result.stats = cached->cache->Snapshot();

  auto uncached = MakeTenancy(/*with_cache=*/false);
  RunSequence(uncached.get(), kUsers, 0, uncached_options, nullptr);
  result.uncached_micros = RunSequence(uncached.get(), operations,
                                       mutate_every, uncached_options,
                                       nullptr);

  result.speedup = result.cached_micros > 0
                       ? static_cast<double>(result.uncached_micros) /
                             static_cast<double>(result.cached_micros)
                       : 0;
  return result;
}

void Print(const MixResult& r) {
  std::cout << "write mix " << (r.write_permille / 10.0) << "%: " << r.operations
            << " ops, " << r.mutations << " mutations, cached="
            << r.cached_micros << "us uncached=" << r.uncached_micros
            << "us speedup=" << r.speedup << "x (hits=" << r.stats.mask_hits
            << " misses=" << r.stats.mask_misses << " dropped="
            << r.stats.entries_invalidated << " retained="
            << r.stats.entries_retained << " exact="
            << r.stats.invalidations_exact << " over="
            << r.stats.invalidations_over << ")\n";
}

int RunSmoke() {
  const MixResult r = MeasureMix(/*write_permille=*/100, /*operations=*/1200);
  Print(r);
  if (r.speedup < 2.0) {
    std::cerr << "FAIL: cached run only " << r.speedup
              << "x faster than uncached at 10% writes (>= 2x gate)\n";
    return 1;
  }
  if (r.stats.invalidations_exact == 0 || r.stats.entries_retained == 0) {
    std::cerr << "FAIL: the write mix never exercised selective "
                 "invalidation (exact="
              << r.stats.invalidations_exact
              << " retained=" << r.stats.entries_retained << ")\n";
    return 1;
  }
  return 0;
}

void WriteJson(const std::string& path, const std::vector<MixResult>& mixes) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"selective cache invalidation under write "
         "mixes\",\n"
      << "  \"workload\": {\"users\": " << kUsers << ", \"relations\": 2, "
      << "\"rows\": " << kRows
      << ", \"views_per_user\": " << (2 * kViewsPerUser + 1) << "},\n"
      << "  \"gate\": {\"write_pct\": 10, \"min_speedup\": 2.0},\n"
      << "  \"mixes\": [\n";
  for (size_t i = 0; i < mixes.size(); ++i) {
    const MixResult& r = mixes[i];
    out << "    {\n"
        << "      \"write_pct\": " << (r.write_permille / 10.0) << ",\n"
        << "      \"operations\": " << r.operations << ",\n"
        << "      \"mutations\": " << r.mutations << ",\n"
        << "      \"cached_micros\": " << r.cached_micros << ",\n"
        << "      \"uncached_micros\": " << r.uncached_micros << ",\n"
        << "      \"speedup\": " << r.speedup << ",\n"
        << "      \"mask_hits\": " << r.stats.mask_hits << ",\n"
        << "      \"mask_misses\": " << r.stats.mask_misses << ",\n"
        << "      \"entries_invalidated\": " << r.stats.entries_invalidated
        << ",\n"
        << "      \"entries_retained\": " << r.stats.entries_retained << ",\n"
        << "      \"invalidations_exact\": " << r.stats.invalidations_exact
        << ",\n"
        << "      \"invalidations_over\": " << r.stats.invalidations_over
        << "\n"
        << "    }" << (i + 1 < mixes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

int RunFull(const std::string& path) {
  std::vector<MixResult> mixes;
  for (int write_permille : {0, 10, 100}) {
    mixes.push_back(MeasureMix(write_permille, /*operations=*/2400));
    Print(mixes.back());
  }
  WriteJson(path, mixes);
  const MixResult& hot = mixes.back();  // the 10% mix
  if (hot.speedup < 2.0) {
    std::cerr << "FAIL: cached run only " << hot.speedup
              << "x faster than uncached at 10% writes (>= 2x gate)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace viewauth

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return viewauth::RunSmoke();
    }
  }
  return viewauth::RunFull("BENCH_invalidation.json");
}
