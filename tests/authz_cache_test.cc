// The authorization cache: hits on repeated queries, one shared decision
// per cached query, invalidation on every entitlement-changing event
// (permit, deny, view drop/redefinition, DDL), per-user isolation, the
// entry bound, and the generation-counter soundness argument for callers
// that mutate the catalog directly (no engine involved).
//
// The cache syncs only when a retrieve opens its txn, so the
// invalidation counters move at the first retrieve after a mutation:
// every check of them below reads after such a retrieve.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "authz/authorizer.h"
#include "authz/authz_cache.h"
#include "engine/engine.h"
#include "parser/parser.h"

namespace viewauth {
namespace {

// Replays the catalog journal into the cache without filling it: a
// retrieve with the cache switched off still opens its txn, the cache's
// one sync point. Setups call it before resetting the counters, so a
// test's counters see only the test's own mutations.
void ReplaySetup(Engine* engine) {
  engine->options().enable_authz_cache = false;
  auto out = engine->Execute("retrieve (EMPLOYEE.NAME) as nobody");
  engine->options().enable_authz_cache = true;
  ASSERT_TRUE(out.ok()) << out.status();
}

// An engine with the test schema loaded: EMPLOYEE(NAME key, SALARY) with
// two rows, a NAME-only view granted to Brown.
void SetupEngine(Engine* engine) {
  auto out = engine->ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, SALARY int)
    insert into EMPLOYEE values (Jones, 26000)
    insert into EMPLOYEE values (Smith, 22000)
    view NAMES (EMPLOYEE.NAME)
    permit NAMES to Brown
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  ReplaySetup(engine);
  engine->ResetAuthzStats();
}

constexpr const char* kQuery =
    "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Brown";

TEST(AuthzCacheTest, RepeatQueryHitsMaskCache) {
  Engine engine;
  SetupEngine(&engine);

  ASSERT_TRUE(engine.Execute(kQuery).ok());
  AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, 1);
  EXPECT_EQ(stats.mask_misses, 1);
  EXPECT_EQ(stats.mask_hits, 0);
  EXPECT_EQ(stats.prepared_misses, 1);

  ASSERT_TRUE(engine.Execute(kQuery).ok());
  stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, 2);
  EXPECT_EQ(stats.mask_misses, 1);
  // The repeat is served from the mask cache, before the prepared layer
  // is even consulted.
  EXPECT_EQ(stats.mask_hits, 1);
  EXPECT_EQ(stats.prepared_misses, 1);
  EXPECT_EQ(stats.prepared_hits, 0);
}

TEST(AuthzCacheTest, PermitInvalidatesAndWidensDelivery) {
  Engine engine;
  SetupEngine(&engine);

  auto result1 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_FALSE(result1->full_access);

  // A new grant must be visible immediately: the cached NAME-only mask
  // may not be served again.
  ASSERT_TRUE(engine
                  .ExecuteScript("view ALL_E (EMPLOYEE.NAME, "
                                 "EMPLOYEE.SALARY)\npermit ALL_E to Brown")
                  .ok());
  auto result2 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_TRUE(result2->full_access);
  EXPECT_GE(engine.authz_stats().entries_invalidated, 1);
  EXPECT_EQ(engine.authz_stats().mask_hits, 0);
  EXPECT_EQ(engine.authz_stats().mask_misses, 2);
}

TEST(AuthzCacheTest, DenyInvalidatesAndNarrowsDelivery) {
  Engine engine;
  SetupEngine(&engine);
  ASSERT_TRUE(engine
                  .ExecuteScript("view ALL_E (EMPLOYEE.NAME, "
                                 "EMPLOYEE.SALARY)\npermit ALL_E to Brown")
                  .ok());

  auto result1 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_TRUE(result1->full_access);

  ASSERT_TRUE(engine.Execute("deny ALL_E to Brown").ok());
  auto result2 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result2.ok()) << result2.status();
  // Back to the NAME-only view: the stale full-access mask was dropped.
  EXPECT_FALSE(result2->full_access);
  EXPECT_FALSE(result2->denied);
}

TEST(AuthzCacheTest, ViewRedefinitionInvalidates) {
  Engine engine;
  SetupEngine(&engine);

  auto result1 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_FALSE(result1->full_access);

  // Redefine NAMES to cover both columns; the regrant and new definition
  // must take effect on the very next retrieve.
  ASSERT_TRUE(engine.Execute("drop view NAMES").ok());
  ASSERT_TRUE(engine
                  .ExecuteScript("view NAMES (EMPLOYEE.NAME, "
                                 "EMPLOYEE.SALARY)\npermit NAMES to Brown")
                  .ok());
  auto result2 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_TRUE(result2->full_access);
}

TEST(AuthzCacheTest, DdlInvalidates) {
  Engine engine;
  SetupEngine(&engine);

  ASSERT_TRUE(engine.Execute(kQuery).ok());
  const long long before = engine.authz_stats().entries_invalidated;
  ASSERT_TRUE(
      engine.Execute("relation DEPT (DNAME string key, HEAD string)").ok());
  // The repeat after DDL re-derives.
  ASSERT_TRUE(engine.Execute(kQuery).ok());
  EXPECT_GT(engine.authz_stats().entries_invalidated, before);
  EXPECT_EQ(engine.authz_stats().mask_hits, 0);
  EXPECT_EQ(engine.authz_stats().mask_misses, 2);
}

TEST(AuthzCacheTest, PerUserIsolation) {
  Engine engine;
  SetupEngine(&engine);
  ASSERT_TRUE(engine
                  .ExecuteScript("view ALL_E (EMPLOYEE.NAME, "
                                 "EMPLOYEE.SALARY)\npermit ALL_E to Klein")
                  .ok());
  engine.ResetAuthzStats();

  // Same query text, different users: distinct cache entries, distinct
  // masks.
  auto result1 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_FALSE(result1->full_access);
  auto result2 =
      engine.Retrieve("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Klein");
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_TRUE(result2->full_access);
  AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.mask_misses, 2);
  EXPECT_EQ(stats.mask_hits, 0);

  // Each user's repeat hits their own entry and keeps their own mask.
  auto result3 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result3.ok()) << result3.status();
  EXPECT_FALSE(result3->full_access);
  auto result4 =
      engine.Retrieve("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Klein");
  ASSERT_TRUE(result4.ok()) << result4.status();
  EXPECT_TRUE(result4->full_access);
  stats = engine.authz_stats();
  EXPECT_EQ(stats.mask_misses, 2);
  EXPECT_EQ(stats.mask_hits, 2);
}

TEST(AuthzCacheTest, StatsCountersAreConsistent) {
  Engine engine;
  SetupEngine(&engine);

  constexpr int kRepeats = 5;
  for (int i = 0; i < kRepeats; ++i) {
    ASSERT_TRUE(engine.Execute(kQuery).ok());
  }
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, kRepeats);
  EXPECT_EQ(stats.mask_hits + stats.mask_misses, kRepeats);
  EXPECT_EQ(stats.mask_misses, 1);
  EXPECT_GE(stats.total_micros, stats.mask_apply_micros);
  EXPECT_FALSE(stats.ToString().empty());

  engine.ResetAuthzStats();
  const AuthzStats zeroed = engine.authz_stats();
  EXPECT_EQ(zeroed.retrieves, 0);
  EXPECT_EQ(zeroed.mask_hits, 0);
  EXPECT_EQ(zeroed.total_micros, 0);
}

TEST(AuthzCacheTest, CacheDisabledOptionBypassesCache) {
  Engine engine;
  SetupEngine(&engine);
  engine.options().enable_authz_cache = false;

  ASSERT_TRUE(engine.Execute(kQuery).ok());
  ASSERT_TRUE(engine.Execute(kQuery).ok());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, 2);
  EXPECT_EQ(stats.mask_hits, 0);
  EXPECT_EQ(stats.mask_misses, 0);
  EXPECT_EQ(stats.prepared_hits, 0);
  EXPECT_EQ(stats.prepared_misses, 0);
}

// One immutable decision per cached query: a warm retrieve returns the
// very object the cold one built, so neither the mask nor its compiled
// form is rebuilt or copied.
TEST(AuthzCacheTest, WarmHitSharesOneDecision) {
  Engine engine;
  SetupEngine(&engine);

  auto result1 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result1.ok()) << result1.status();
  const std::shared_ptr<const Decision> cold = result1->decision;
  ASSERT_NE(cold, nullptr);
  // Brown sees NAME only: partial access, so the vectorized plan compiled
  // the mask and the permits were rendered.
  EXPECT_FALSE(cold->denied);
  EXPECT_FALSE(cold->full_access);
  EXPECT_NE(cold->compiled, nullptr);
  EXPECT_EQ(cold->permits.size(), 1u);

  auto result2 = engine.Retrieve(kQuery);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_EQ(result2->decision.get(), cold.get());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.mask_compiles, 1);
  EXPECT_EQ(stats.mask_hits, 1);
  EXPECT_EQ(stats.mask_misses, 1);
}

// DeriveMask reads decisions Retrieve built but never stores one of its
// own: a query first seen by DeriveMask still misses in Retrieve.
TEST(AuthzCacheTest, DeriveMaskReadsButNeverFillsDecisions) {
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "EMPLOYEE",
                                    {{"NAME", ValueType::kString},
                                     {"SALARY", ValueType::kInt64}},
                                    {0})
                                    .value())
                  .ok());
  ViewCatalog catalog(&db.schema());
  auto view = ParseStatement("view NAMES (EMPLOYEE.NAME)");
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(catalog.DefineView(std::get<ViewStmt>(*view)).ok());
  ASSERT_TRUE(catalog.Permit("NAMES", "Brown").ok());
  AuthzCache cache;
  Authorizer authorizer(&db, &catalog, &cache);
  auto query_of = [&](const std::string& text) {
    auto stmt = ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    return ConjunctiveQuery::FromRetrieve(db.schema(),
                                          std::get<RetrieveStmt>(*stmt))
        .value();
  };
  const ConjunctiveQuery seen =
      query_of("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  const ConjunctiveQuery fresh = query_of(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY = 1");

  auto retrieved = authorizer.Retrieve("Brown", seen);
  ASSERT_TRUE(retrieved.ok());
  EXPECT_EQ(cache.Snapshot().mask_misses, 1);
  auto derived = authorizer.DeriveMask("Brown", seen);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(cache.Snapshot().mask_hits, 1);
  EXPECT_EQ(derived->size(), retrieved->mask().size());

  ASSERT_TRUE(authorizer.DeriveMask("Brown", fresh).ok());
  EXPECT_EQ(cache.Snapshot().mask_misses, 2);
  ASSERT_TRUE(authorizer.Retrieve("Brown", fresh).ok());
  AuthzStats stats = cache.Snapshot();
  EXPECT_EQ(stats.mask_misses, 3);
  EXPECT_EQ(stats.mask_hits, 1);
  // The Retrieve did store: the next one hits.
  ASSERT_TRUE(authorizer.Retrieve("Brown", fresh).ok());
  EXPECT_EQ(cache.Snapshot().mask_hits, 2);
}

// A catalog driven directly, without an engine: EMPLOYEE(NAME key,
// SALARY) with NAMES (NAME) and RICH (NAME, SALARY where SALARY > 25000)
// granted to Brown. Both views keep the key, so the self-join refinement
// joins them.
struct DirectCatalog {
  DirectCatalog() : catalog(&db.schema()) {
    EXPECT_TRUE(db.CreateRelation(RelationSchema::Make(
                                      "EMPLOYEE",
                                      {{"NAME", ValueType::kString},
                                       {"SALARY", ValueType::kInt64}},
                                      {0})
                                      .value())
                    .ok());
    for (const char* text :
         {"view NAMES (EMPLOYEE.NAME)",
          "view RICH (EMPLOYEE.NAME, EMPLOYEE.SALARY) where "
          "EMPLOYEE.SALARY > 25000"}) {
      auto view = ParseStatement(text);
      EXPECT_TRUE(view.ok()) << view.status();
      EXPECT_TRUE(catalog.DefineView(std::get<ViewStmt>(*view)).ok());
    }
    EXPECT_TRUE(catalog.Permit("NAMES", "Brown").ok());
    EXPECT_TRUE(catalog.Permit("RICH", "Brown").ok());
  }

  ConjunctiveQuery Query(const std::string& text) const {
    auto stmt = ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    return ConjunctiveQuery::FromRetrieve(db.schema(),
                                          std::get<RetrieveStmt>(*stmt))
        .value();
  }

  DatabaseInstance db;
  ViewCatalog catalog;
};

// The plan is part of a decision's key: the canonical oracle's decision
// is never compiled and the vectorized plan's is, so neither plan may be
// served the other's.
TEST(AuthzCacheTest, CanonicalAndVectorizedPlansKeySeparateDecisions) {
  DirectCatalog direct;
  AuthzCache cache;
  Authorizer authorizer(&direct.db, &direct.catalog, &cache);
  const ConjunctiveQuery query =
      direct.Query("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  AuthorizationOptions canonical;
  canonical.use_optimized_data_plan = false;
  const AuthorizationOptions vectorized;

  auto oracle = authorizer.Retrieve("Brown", query, canonical);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto production = authorizer.Retrieve("Brown", query, vectorized);
  ASSERT_TRUE(production.ok()) << production.status();
  AuthzStats stats = cache.Snapshot();
  EXPECT_EQ(stats.mask_misses, 2);
  EXPECT_EQ(stats.mask_hits, 0);
  EXPECT_EQ(stats.mask_compiles, 1);
  ASSERT_FALSE(oracle->decision->full_access);
  EXPECT_EQ(oracle->decision->compiled, nullptr);
  EXPECT_NE(production->decision->compiled, nullptr);
  EXPECT_NE(oracle->decision.get(), production->decision.get());

  // Each plan's repeat hits its own decision.
  auto oracle_again = authorizer.Retrieve("Brown", query, canonical);
  ASSERT_TRUE(oracle_again.ok());
  EXPECT_EQ(oracle_again->decision.get(), oracle->decision.get());
  auto production_again = authorizer.Retrieve("Brown", query, vectorized);
  ASSERT_TRUE(production_again.ok());
  EXPECT_EQ(production_again->decision.get(), production->decision.get());
  stats = cache.Snapshot();
  EXPECT_EQ(stats.mask_misses, 2);
  EXPECT_EQ(stats.mask_hits, 2);
}

// Explain's stored-tuple count is taken with the cache off, so a cache
// warmed by a retrieve (which holds the self-joined meta-relation) does
// not change what Explain reports.
TEST(AuthzCacheTest, ExplainOperandCountsIgnoreAWarmCache) {
  DirectCatalog direct;
  const ConjunctiveQuery query =
      direct.Query("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");

  AuthzCache fresh_cache;
  Authorizer fresh(&direct.db, &direct.catalog, &fresh_cache);
  auto cold = fresh.Explain("Brown", query);
  ASSERT_TRUE(cold.ok()) << cold.status();

  AuthzCache warm_cache;
  Authorizer warm(&direct.db, &direct.catalog, &warm_cache);
  ASSERT_TRUE(warm.Retrieve("Brown", query).ok());
  ASSERT_EQ(warm_cache.Snapshot().prepared_misses, 1);
  auto warmed = warm.Explain("Brown", query);
  ASSERT_TRUE(warmed.ok()) << warmed.status();

  ASSERT_EQ(cold->operands.size(), 1u);
  ASSERT_EQ(warmed->operands.size(), cold->operands.size());
  EXPECT_EQ(cold->operands[0].relation, "EMPLOYEE");
  EXPECT_EQ(cold->operands[0].view_tuples, 2);
  EXPECT_GT(cold->operands[0].with_self_joins, cold->operands[0].view_tuples);
  EXPECT_EQ(warmed->operands[0].relation, cold->operands[0].relation);
  EXPECT_EQ(warmed->operands[0].view_tuples, cold->operands[0].view_tuples);
  EXPECT_EQ(warmed->operands[0].with_self_joins,
            cold->operands[0].with_self_joins);
  EXPECT_EQ(warmed->final_mask, cold->final_mask);
}

// The soundness backstop: callers that bypass the engine and mutate the
// catalog (or schema) directly never see a stale entry, because every
// entry is generation-checked at lookup.
TEST(AuthzCacheTest, DirectCatalogMutationIsCaughtByGenerationCheck) {
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "EMPLOYEE",
                                    {{"NAME", ValueType::kString},
                                     {"SALARY", ValueType::kInt64}},
                                    {0})
                                    .value())
                  .ok());
  ASSERT_TRUE(
      db.Insert("EMPLOYEE",
                Tuple({Value::String("Jones"), Value::Int64(26000)}))
          .ok());
  ViewCatalog catalog(&db.schema());
  auto parse_view = [&](const std::string& text) {
    auto stmt = ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    return std::get<ViewStmt>(*stmt);
  };
  ASSERT_TRUE(catalog.DefineView(parse_view("view NAMES (EMPLOYEE.NAME)"))
                  .ok());
  ASSERT_TRUE(catalog.Permit("NAMES", "Brown").ok());

  AuthzCache cache;
  Authorizer authorizer(&db, &catalog, &cache);
  auto stmt = ParseStatement("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  ASSERT_TRUE(stmt.ok());
  auto query = ConjunctiveQuery::FromRetrieve(db.schema(),
                                              std::get<RetrieveStmt>(*stmt));
  ASSERT_TRUE(query.ok());

  auto first = authorizer.Retrieve("Brown", *query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->full_access);

  // Direct catalog mutation — no engine routes it anywhere.
  ASSERT_TRUE(catalog
                  .DefineView(parse_view(
                      "view ALL_E (EMPLOYEE.NAME, EMPLOYEE.SALARY)"))
                  .ok());
  ASSERT_TRUE(catalog.Permit("ALL_E", "Brown").ok());

  auto second = authorizer.Retrieve("Brown", *query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->full_access);
  // The stale entry was dropped by the second retrieve's sync.
  EXPECT_GE(cache.Snapshot().entries_invalidated, 1);
}

// A cache more than the journal's 4,096 records behind its reader cannot
// replay selectively: the reader's sync wipes it once, books the wipe as
// one over-invalidation, and the retrieve still sees the latest grants.
TEST(AuthzCacheTest, CacheBehindTheJournalWipesOnceAndStaysCorrect) {
  DirectCatalog direct;
  AuthzCache cache;
  Authorizer authorizer(&direct.db, &direct.catalog, &cache);
  const ConjunctiveQuery query =
      direct.Query("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  auto first = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->full_access);
  cache.ResetStats();

  // 4,096 membership toggles, then a full grant: 4,098 records.
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE((i % 2 == 0 ? direct.catalog.AddMember("Klein", "staff")
                            : direct.catalog.RemoveMember("Klein", "staff"))
                    .ok());
  }
  auto all = ParseStatement("view ALL_E (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(direct.catalog.DefineView(std::get<ViewStmt>(*all)).ok());
  ASSERT_TRUE(direct.catalog.Permit("ALL_E", "Brown").ok());

  auto second = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->full_access);
  AuthzStats stats = cache.Snapshot();
  EXPECT_EQ(stats.invalidations_over, 1);
  EXPECT_EQ(stats.invalidations_exact, 0);
  EXPECT_EQ(stats.entries_invalidated, 2);  // the decision and its prepared
  EXPECT_EQ(stats.mask_misses, 1);

  // The wiped cache fills again at the new generation.
  auto third = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->decision.get(), second->decision.get());
  stats = cache.Snapshot();
  EXPECT_EQ(stats.invalidations_over, 1);
  EXPECT_EQ(stats.mask_hits, 1);
}

// ---------------------------------------------------------------------
// Selective (dependency-tracked) invalidation precision: each mutation
// kind drops exactly the dependent entries and retains the rest, with
// the exact/over counters distinguishing targeted events from wipes.
// ---------------------------------------------------------------------

// Two relations and two users, both with warmed cache entries, so every
// precision test below can assert both the drop AND the retention side.
void SetupTwoRelationEngine(Engine* engine) {
  auto out = engine->ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, SALARY int)
    relation DEPT (DNAME string key, BUDGET int)
    insert into EMPLOYEE values (Jones, 26000)
    insert into EMPLOYEE values (Smith, 22000)
    insert into DEPT values (eng, 500000)
    view NAMES (EMPLOYEE.NAME)
    view DEPTS (DEPT.DNAME)
    permit NAMES to Brown
    permit DEPTS to Klein
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  ReplaySetup(engine);
  engine->ResetAuthzStats();
}

constexpr const char* kEmpQueryBrown =
    "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Brown";
constexpr const char* kDeptQueryKlein =
    "retrieve (DEPT.DNAME, DEPT.BUDGET) as Klein";

TEST(AuthzCacheTest, PermitInvalidatesOnlyTheGranteesEntries) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());
  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());

  // A new EMPLOYEE grant to Brown: Brown's EMPLOYEE entries must drop,
  // Klein's DEPT entries must survive.
  ASSERT_TRUE(engine
                  .ExecuteScript("view ALL_E (EMPLOYEE.NAME, "
                                 "EMPLOYEE.SALARY)\npermit ALL_E to Brown")
                  .ok());
  auto result1 = engine.Retrieve(kEmpQueryBrown);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_TRUE(result1->full_access);
  AuthzStats stats = engine.authz_stats();
  EXPECT_GE(stats.invalidations_exact, 1);
  EXPECT_EQ(stats.invalidations_over, 0);
  EXPECT_GE(stats.entries_invalidated, 1);
  EXPECT_GE(stats.entries_retained, 1);

  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());
  stats = engine.authz_stats();
  // Brown re-derived (miss #3); Klein's repeat rode the retained entry.
  EXPECT_EQ(stats.mask_misses, 3);
  EXPECT_EQ(stats.mask_hits, 1);
}

TEST(AuthzCacheTest, PermitOutsideTheEntriesScopeRetainsThem) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());

  // A DEPT-only grant to Brown: the grant's scope {DEPT} is no subset of
  // the cached entry's read set {EMPLOYEE}, so the entry survives even
  // though user and event-user coincide.
  ASSERT_TRUE(engine.Execute("permit DEPTS to Brown").ok());
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_GE(stats.invalidations_exact, 1);
  EXPECT_EQ(stats.entries_invalidated, 0);
  EXPECT_GE(stats.entries_retained, 1);
  EXPECT_EQ(stats.mask_hits, 1);
  EXPECT_EQ(stats.mask_misses, 1);
}

TEST(AuthzCacheTest, NonRetrieveModeGrantDropsNothing) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());

  // Insert-mode grants never feed retrieve-time masks; the journal
  // records them with an empty scope list and nothing drops.
  ASSERT_TRUE(engine.Execute("permit NAMES to Brown for insert").ok());
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.entries_invalidated, 0);
  EXPECT_EQ(stats.mask_hits, 1);
  EXPECT_EQ(stats.mask_misses, 1);
}

TEST(AuthzCacheTest, DataMutationsDropNothing) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());

  // Inserts change data, not entitlements: masks stay valid and are
  // reapplied to the new rows.
  ASSERT_TRUE(
      engine.Execute("insert into EMPLOYEE values (Davis, 31000)").ok());
  auto result1 = engine.Retrieve(kEmpQueryBrown);
  ASSERT_TRUE(result1.ok()) << result1.status();
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.entries_invalidated, 0);
  EXPECT_EQ(stats.mask_hits, 1);
  EXPECT_EQ(stats.mask_misses, 1);
  // The masked answer does include the new row (3 rows, NAME visible).
  EXPECT_EQ(result1->answer.size(), 3u);
}

TEST(AuthzCacheTest, FreshViewDefinitionDropsNothing) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());

  // A brand-new view has no grants: no user can be affected yet.
  ASSERT_TRUE(
      engine.Execute("view WIDE (EMPLOYEE.NAME, EMPLOYEE.SALARY)").ok());
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.entries_invalidated, 0);
  EXPECT_EQ(stats.invalidations_over, 0);
  EXPECT_EQ(stats.mask_hits, 1);
  EXPECT_EQ(stats.mask_misses, 1);
}

TEST(AuthzCacheTest, DropViewInvalidatesHoldersAndRetainsOthers) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());
  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());

  // Dropping NAMES affects its holder Brown (scope {EMPLOYEE}); Klein's
  // DEPT entries must survive.
  ASSERT_TRUE(engine.Execute("drop view NAMES").ok());
  auto result1 = engine.Retrieve(kEmpQueryBrown);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_TRUE(result1->denied);  // grant went with the view
  AuthzStats stats = engine.authz_stats();
  EXPECT_GE(stats.invalidations_exact, 1);
  EXPECT_EQ(stats.invalidations_over, 0);
  EXPECT_GE(stats.entries_invalidated, 1);
  EXPECT_GE(stats.entries_retained, 1);

  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());
  stats = engine.authz_stats();
  EXPECT_EQ(stats.mask_hits, 1);  // Klein's repeat, from the cache
}

TEST(AuthzCacheTest, MultiRelationViewGrantInvalidatesCoveringEntry) {
  Engine engine;
  SetupTwoRelationEngine(&engine);

  // Warm a cross-relation entry for Brown: its read set is
  // {EMPLOYEE, DEPT}, so it embeds grants whose scope is either side.
  ASSERT_TRUE(engine
                  .Execute("retrieve (EMPLOYEE.NAME, DEPT.DNAME) as Brown")
                  .ok());
  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());

  // A DEPT-scoped grant to Brown must drop the covering entry (scope
  // {DEPT} IS a subset of {EMPLOYEE, DEPT}) while Klein's is retained.
  ASSERT_TRUE(engine.Execute("permit DEPTS to Brown").ok());
  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_GE(stats.entries_invalidated, 1);
  EXPECT_GE(stats.entries_retained, 1);
  EXPECT_EQ(stats.mask_hits, 1);
}

TEST(AuthzCacheTest, DdlCountsAsOverInvalidation) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine.Execute(kEmpQueryBrown).ok());

  // Relation DDL rewrites the schema universe: the next retrieve's sync
  // takes the full wipe and books it as an over-invalidation, not an
  // exact one.
  ASSERT_TRUE(
      engine.Execute("relation LOC (CITY string key, REGION string)").ok());
  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());
  const AuthzStats stats = engine.authz_stats();
  EXPECT_GE(stats.invalidations_over, 1);
  EXPECT_GE(stats.entries_invalidated, 1);
  EXPECT_EQ(stats.invalidations_exact, 0);
}

TEST(AuthzCacheTest, MembershipChangeInvalidatesOnlyTheMember) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "view ALL_E (EMPLOYEE.NAME, EMPLOYEE.SALARY)\n"
                      "permit ALL_E to staff\n"
                      "member Brown of staff")
                  .ok());
  ReplaySetup(&engine);
  engine.ResetAuthzStats();
  auto result1 = engine.Retrieve(kEmpQueryBrown);
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_TRUE(result1->full_access);
  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());

  // Brown leaves staff: only Brown's EMPLOYEE entries drop.
  ASSERT_TRUE(engine.Execute("unmember Brown of staff").ok());
  auto result2 = engine.Retrieve(kEmpQueryBrown);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_FALSE(result2->full_access);  // NAMES only again
  AuthzStats stats = engine.authz_stats();
  EXPECT_GE(stats.invalidations_exact, 1);
  EXPECT_GE(stats.entries_invalidated, 1);
  EXPECT_GE(stats.entries_retained, 1);

  ASSERT_TRUE(engine.Execute(kDeptQueryKlein).ok());
  stats = engine.authz_stats();
  EXPECT_EQ(stats.mask_hits, 1);  // Klein retained
}

// A view may share its name with a relation; it is still a view over
// that base relation, not a layer under every other view over it. The
// engine below has a view named EMPLOYEE beside PAY, a second view over
// the relation EMPLOYEE, so every grant of PAY must invalidate over the
// scope {EMPLOYEE}.
void SetupHomonymEngine(Engine* engine) {
  auto out = engine->ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, SALARY int)
    insert into EMPLOYEE values (Jones, 26000)
    insert into EMPLOYEE values (Smith, 22000)
    view EMPLOYEE (EMPLOYEE.NAME)
    view PAY (EMPLOYEE.NAME, EMPLOYEE.SALARY)
  )");
  ASSERT_TRUE(out.ok()) << out.status();
}

TEST(AuthzCacheTest, DenyBesideAHomonymViewTakesTheGrantAway) {
  Engine engine;
  SetupHomonymEngine(&engine);
  ASSERT_TRUE(engine.Execute("permit PAY to Brown").ok());
  auto granted = engine.Retrieve(kQuery);
  ASSERT_TRUE(granted.ok()) << granted.status();
  EXPECT_TRUE(granted->full_access);

  // Brown holds no other grant: the cached full-access decision must go.
  ASSERT_TRUE(engine.Execute("deny PAY to Brown").ok());
  auto revoked = engine.Retrieve(kQuery);
  ASSERT_TRUE(revoked.ok()) << revoked.status();
  EXPECT_TRUE(revoked->denied);
  EXPECT_EQ(revoked->answer.size(), 0);
}

TEST(AuthzCacheTest, MembershipBesideAHomonymViewChangesDelivery) {
  Engine engine;
  SetupHomonymEngine(&engine);
  ASSERT_TRUE(engine.Execute("permit PAY to staff").ok());
  auto outsider = engine.Retrieve(kQuery);
  ASSERT_TRUE(outsider.ok()) << outsider.status();
  EXPECT_TRUE(outsider->denied);

  ASSERT_TRUE(engine.Execute("member Brown of staff").ok());
  auto member = engine.Retrieve(kQuery);
  ASSERT_TRUE(member.ok()) << member.status();
  EXPECT_FALSE(member->denied);
  EXPECT_TRUE(member->full_access);

  ASSERT_TRUE(engine.Execute("unmember Brown of staff").ok());
  auto former = engine.Retrieve(kQuery);
  ASSERT_TRUE(former.ok()) << former.status();
  EXPECT_TRUE(former->denied);
}

// Crossing the entry bound evicts decisions and keeps the prepared
// meta-relations and constant profiles; the dependency index must stay
// exact across those evictions, so a later targeted grant still drops
// the grantee's survivors and keeps the other user's. (The debug-build
// index check runs on that grant.) Each query's mask conjoins the
// query's own constant (a case-4 overlap with the RICH views), so every
// decision keeps its exact key and 1,100 constants per user make 2,200
// entries: past the 1,024-entry bound twice over.
TEST(AuthzCacheTest, EntryBoundKeepsInvalidationSound) {
  Engine engine;
  SetupTwoRelationEngine(&engine);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"(
    view RICH_E (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY > 20000
    view RICH_D (DEPT.DNAME, DEPT.BUDGET) where DEPT.BUDGET > 100000
    permit RICH_E to Brown
    permit RICH_D to Klein
  )")
                  .ok());
  ReplaySetup(&engine);
  engine.ResetAuthzStats();
  constexpr int kQueries = 1100;  // past the 1,024-entry bound, twice over
  auto brown_query = [](int i) {
    return "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) where "
           "EMPLOYEE.SALARY < " +
           std::to_string(30000 + i) + " as Brown";
  };
  auto klein_query = [](int i) {
    return "retrieve (DEPT.DNAME, DEPT.BUDGET) where DEPT.BUDGET < " +
           std::to_string(200000 + i) + " as Klein";
  };
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(engine.Execute(brown_query(i)).ok());
    ASSERT_TRUE(engine.Execute(klein_query(i)).ok());
  }
  AuthzStats stats = engine.authz_stats();
  ASSERT_EQ(stats.mask_misses, 2 * kQueries);
  ASSERT_EQ(stats.class_hits, 0);
  // Two evictions, each of decisions only: the four prepared
  // meta-relations were built once and never rebuilt.
  EXPECT_GE(stats.entries_evicted, 2 * 1000);
  EXPECT_EQ(stats.prepared_misses, 2);

  ASSERT_TRUE(engine
                  .ExecuteScript("view ALL_E (EMPLOYEE.NAME, "
                                 "EMPLOYEE.SALARY)\npermit ALL_E to Brown")
                  .ok());
  auto result1 = engine.Retrieve(brown_query(kQueries - 1));
  ASSERT_TRUE(result1.ok()) << result1.status();
  EXPECT_TRUE(result1->full_access);
  stats = engine.authz_stats();
  EXPECT_GE(stats.entries_invalidated, 1);
  EXPECT_GE(stats.entries_retained, 1);
  EXPECT_EQ(stats.invalidations_over, 0);

  ASSERT_TRUE(engine.Execute(klein_query(kQueries - 1)).ok());
  stats = engine.authz_stats();
  EXPECT_EQ(stats.mask_hits, 1);  // Klein's survivor
  EXPECT_EQ(stats.mask_misses, 2 * kQueries + 1);  // Brown re-derived
}

// The governor abort pattern applied to the dependency index: an aborted
// retrieve must stage neither cache entries nor dependency edges, so a
// subsequent targeted mutation books identical precision counters on the
// subject and on a control that never ran the aborted retrieve.
TEST(AuthzCacheTest, AbortedRetrieveStagesNoDependencyEdges) {
  Engine control;
  SetupTwoRelationEngine(&control);
  Engine subject;
  SetupTwoRelationEngine(&subject);

  subject.options().max_rows = 1;  // guarantees a budget abort
  auto aborted = subject.Execute(kEmpQueryBrown);
  ASSERT_FALSE(aborted.ok());
  ASSERT_TRUE(aborted.status().IsResourceExhausted()) << aborted.status();
  subject.options().max_rows = 0;

  // Both engines warm the same entries, then take the same targeted
  // mutation, which the next retrieve replays. If the abort had leaked
  // dependency edges, the subject's drop/retain tallies would differ.
  for (Engine* engine : {&control, &subject}) {
    ASSERT_TRUE(engine->Execute(kEmpQueryBrown).ok());
    ASSERT_TRUE(engine->Execute(kDeptQueryKlein).ok());
    ASSERT_TRUE(engine
                    ->ExecuteScript("view ALL_E (EMPLOYEE.NAME, "
                                    "EMPLOYEE.SALARY)\npermit ALL_E to Brown")
                    .ok());
  }
  auto subject_out = subject.Execute(kEmpQueryBrown);
  auto control_out = control.Execute(kEmpQueryBrown);
  ASSERT_TRUE(subject_out.ok());
  ASSERT_TRUE(control_out.ok());
  EXPECT_EQ(*subject_out, *control_out);

  const AuthzStats s = subject.authz_stats();
  const AuthzStats c = control.authz_stats();
  EXPECT_GE(c.entries_invalidated, 1);
  EXPECT_EQ(s.entries_invalidated, c.entries_invalidated);
  EXPECT_EQ(s.entries_retained, c.entries_retained);
  EXPECT_EQ(s.invalidations_exact, c.invalidations_exact);
  EXPECT_EQ(s.invalidations_over, c.invalidations_over);
  EXPECT_EQ(s.mask_hits, c.mask_hits);
  EXPECT_EQ(s.mask_misses, c.mask_misses);
}

}  // namespace
}  // namespace viewauth
