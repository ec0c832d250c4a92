// Differential soundness: the cached + optimized pipeline must be
// observationally identical to a fresh canonical run.
//
// Promoted from the EXP-S1 randomized campaign (bench/exp_fuzz_soundness)
// into the test tier: hundreds of deterministic seeded scenarios — random
// schemas, views, grants, queries, option combinations — each executed
// through two independent authorizers:
//   * the CANONICAL run: no cache, canonical data plan,
//     interpretive mask application (Authorizer::RowSatisfies) — it
//     never touches the compiled-mask code the fast run uses;
//   * the FAST run: decision cache + vectorized data plan + compiled
//     batch mask application, executed
//     TWICE so the repeat is served from the cache.
// Every observable — delivered answer, raw answer, mask (compared by
// alpha-normalized structural keys), inferred permits (synthetic w-vars
// normalized), denied/full-access flags, and the delivered answer's
// rendered reply — must agree across all three executions.
//
// After the warm repeat, the fast authorizer runs the query's *sibling*:
// the same shape with its constants moved within their order classes
// (authz/constant_class.h), or next to and onto the nearest view bound
// where they have none. A class hit serves the sibling the decision
// derived for the original query, so the sibling's observables are
// compared with a canonical run of the sibling; the campaign counts the
// class hits, so the leg cannot pass vacuously.

#include <algorithm>
#include <map>
#include <random>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "algebra/vectorized.h"
#include "authz/audit_log.h"
#include "authz/authorizer.h"
#include "authz/authz_cache.h"
#include "authz/constant_class.h"
#include "calculus/conjunctive_query.h"
#include "engine/engine.h"
#include "engine/table_printer.h"
#include "meta/view_store.h"
#include "parser/ast.h"
#include "parser/parser.h"
#include "storage/relation.h"

namespace viewauth {
namespace {

constexpr const char* kColumns[] = {"A", "B", "C", "D"};

// The fewest class hits the single-relation campaign's sibling leg may
// take.
constexpr long long kMinSiblingClassHits = 20;

// Synthetic variables (base-mode selection conjoins) get fresh ids from
// the catalog allocator; their numbering depends on execution history, so
// permit texts are compared with every w-var collapsed.
std::string NormalizeSyntheticVars(const std::string& text) {
  static const std::regex kWVar("w[0-9]+");
  return std::regex_replace(text, kWVar, "w#");
}

// Everything observable about one authorization, in comparable form.
struct Observed {
  bool denied = false;
  bool full_access = false;
  std::vector<Tuple> answer;
  std::vector<Tuple> raw_answer;
  std::vector<std::string> mask_keys;
  std::vector<std::string> permits;

  bool operator==(const Observed& other) const = default;
};

Observed Summarize(const AuthorizationResult& result) {
  Observed o;
  o.denied = result.denied;
  o.full_access = result.full_access;
  o.answer = result.answer.Materialize().SortedRows();
  o.raw_answer = result.raw_answer.Materialize().SortedRows();
  for (const MetaTuple& tuple : result.mask().tuples()) {
    o.mask_keys.push_back(tuple.StructuralKey(/*include_provenance=*/false));
  }
  std::sort(o.mask_keys.begin(), o.mask_keys.end());
  for (const InferredPermit& permit : result.permits()) {
    o.permits.push_back(NormalizeSyntheticVars(permit.ToString()));
  }
  std::sort(o.permits.begin(), o.permits.end());
  return o;
}

// The view constants of each column ("R.A"), as the scenario defined
// them.
using ViewConstants = std::map<std::string, std::set<int64_t>>;

std::string ColumnName(const AttributeRef& ref) {
  return ref.relation + "." + ref.attribute;
}

// The conditions of a query's sibling. Per column: when every view
// constant of the column lies more than kClassGuard below (above) every
// query constant on it, all of them move up (down) by 1000 together,
// which keeps their order class; otherwise each moves to the nearest
// view constant plus `near_offset` (-1, 0 or +1), next to or onto a
// bound, where it has no class.
std::vector<Condition> SiblingConditions(
    const std::vector<Condition>& conditions,
    const ViewConstants& view_constants, int near_offset) {
  std::map<std::string, std::vector<int64_t>> query_constants;
  for (const Condition& cond : conditions) {
    if (cond.rhs.is_attribute) continue;
    query_constants[ColumnName(cond.lhs)].push_back(
        cond.rhs.constant.int64_value());
  }
  std::map<std::string, int64_t> shift;
  for (const auto& [column, values] : query_constants) {
    auto it = view_constants.find(column);
    const std::set<int64_t> none;
    const std::set<int64_t>& views = it == view_constants.end() ? none
                                                                : it->second;
    const int64_t lo = *std::min_element(values.begin(), values.end());
    const int64_t hi = *std::max_element(values.begin(), values.end());
    if (std::all_of(views.begin(), views.end(),
                    [&](int64_t v) { return v < lo - kClassGuard; })) {
      shift[column] = 1000;
    } else if (std::all_of(views.begin(), views.end(), [&](int64_t v) {
                 return v > hi + kClassGuard;
               })) {
      shift[column] = -1000;
    }
  }
  std::vector<Condition> sibling = conditions;
  for (Condition& cond : sibling) {
    if (cond.rhs.is_attribute) continue;
    const std::string column = ColumnName(cond.lhs);
    const int64_t c = cond.rhs.constant.int64_value();
    auto moved = shift.find(column);
    if (moved != shift.end()) {
      cond.rhs.constant = Value::Int64(c + moved->second);
      continue;
    }
    const std::set<int64_t>& views = view_constants.at(column);
    int64_t nearest = *views.begin();
    for (int64_t v : views) {
      if (std::llabs(v - c) < std::llabs(nearest - c)) nearest = v;
    }
    cond.rhs.constant = Value::Int64(nearest + near_offset);
  }
  return sibling;
}

// Runs one scenario through the canonical and fast pipelines over two
// independently built (but identically defined) catalogs, and reports a
// divergence via gtest on the caller's line. `sibling` runs after the
// warm repeat on the same cache; `class_hits`, when set, accumulates how
// often the cache served it by class.
struct ScenarioSetup {
  const DatabaseInstance* db;
  ViewCatalog* canonical_catalog;
  ViewCatalog* fast_catalog;
};

::testing::AssertionResult PipelinesAgree(
    const ScenarioSetup& setup, const ConjunctiveQuery& query,
    const ConjunctiveQuery& sibling, AuthorizationOptions options,
    long long* class_hits = nullptr) {
  AuthorizationOptions canonical_options = options;
  canonical_options.enable_authz_cache = false;
  canonical_options.use_optimized_data_plan = false;

  // The fast leg is the full default pipeline: vectorized columnar data
  // plan with batch-fused compiled-mask application.
  AuthorizationOptions fast_options = options;
  fast_options.enable_authz_cache = true;
  fast_options.use_optimized_data_plan = true;

  Authorizer canonical(setup.db, setup.canonical_catalog);
  AuthzCache cache;
  Authorizer fast(setup.db, setup.fast_catalog, &cache);

  auto canonical_result = canonical.Retrieve("u", query, canonical_options);
  auto cold = fast.Retrieve("u", query, fast_options);
  auto warm = fast.Retrieve("u", query, fast_options);  // cache-served
  if (!canonical_result.ok()) {
    return ::testing::AssertionFailure()
           << "canonical retrieve failed: " << canonical_result.status();
  }
  if (!cold.ok() || !warm.ok()) {
    return ::testing::AssertionFailure()
           << "fast retrieve failed: "
           << (cold.ok() ? warm.status() : cold.status());
  }
  // S on row ids, materialized, is the canonical plan's answer.
  auto ids = EvaluateRowIds(query, *setup.db);
  auto canonical_rows = EvaluateCanonical(query, *setup.db);
  if (!ids.ok() || !canonical_rows.ok()) {
    return ::testing::AssertionFailure()
           << "S failed on " << query.ToString() << ": "
           << (ids.ok() ? canonical_rows.status() : ids.status());
  }
  if (MaterializeRowIds(*ids, query.targets(), canonical_rows->schema())
          .SortedRows() != canonical_rows->SortedRows()) {
    return ::testing::AssertionFailure()
           << "row-id S diverged from the canonical plan on "
           << query.ToString();
  }
  const AuthzStats stats = cache.Snapshot();
  if (stats.mask_hits < 1) {
    return ::testing::AssertionFailure()
           << "repeat retrieve was not served from the mask cache";
  }

  // The reply the engine would render: the canonical leg's rows through
  // the Relation renderer, each fast leg's through its column images.
  const std::string want_reply =
      PrintRelation(canonical_result->answer.Materialize());
  for (const AuthorizationResult* got : {&*cold, &*warm}) {
    if (PrintRelation(got->answer) != want_reply) {
      return ::testing::AssertionFailure()
             << "rendered reply diverged on query " << query.ToString()
             << ":\n"
             << want_reply << "vs\n"
             << PrintRelation(got->answer);
    }
  }

  const Observed expected = Summarize(*canonical_result);
  const Observed cold_obs = Summarize(*cold);
  const Observed warm_obs = Summarize(*warm);
  auto describe = [&](const Observed& got, const char* label) {
    return ::testing::AssertionFailure()
           << label << " run diverged on query " << query.ToString()
           << ": denied " << expected.denied << "/" << got.denied
           << ", full_access " << expected.full_access << "/"
           << got.full_access << ", answer rows " << expected.answer.size()
           << "/" << got.answer.size() << ", mask tuples "
           << expected.mask_keys.size() << "/" << got.mask_keys.size()
           << ", permits " << expected.permits.size() << "/"
           << got.permits.size();
  };
  if (!(cold_obs == expected)) {
    return describe(cold_obs, "cold fast (vectorized)");
  }
  if (!(warm_obs == expected)) {
    return describe(warm_obs, "warm (cached, vectorized) fast");
  }
  const long long class_hits_before = cache.Snapshot().class_hits;
  auto sibling_fast = fast.Retrieve("u", sibling, fast_options);
  auto sibling_canonical =
      canonical.Retrieve("u", sibling, canonical_options);
  if (!sibling_fast.ok() || !sibling_canonical.ok()) {
    return ::testing::AssertionFailure()
           << "sibling retrieve failed on " << sibling.ToString() << ": "
           << (sibling_fast.ok() ? sibling_canonical.status()
                                 : sibling_fast.status());
  }
  const long long hits = cache.Snapshot().class_hits - class_hits_before;
  if (class_hits != nullptr) *class_hits += hits;
  if (!(Summarize(*sibling_fast) == Summarize(*sibling_canonical)) ||
      PrintRelation(sibling_fast->answer) !=
          PrintRelation(sibling_canonical->answer.Materialize())) {
    return ::testing::AssertionFailure()
           << "sibling " << sibling.ToString() << " of "
           << query.ToString() << " diverged from its canonical run ("
           << (hits > 0 ? "class hit" : "no class hit") << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST(DifferentialSoundness, SingleRelationScenarios) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> val(0, 7);
  std::uniform_int_distribution<int> rows(1, 14);
  std::uniform_int_distribution<int> col(0, 3);
  std::uniform_int_distribution<int> ncond(0, 2);
  std::uniform_int_distribution<int> nviews(1, 4);
  std::uniform_int_distribution<int> opd(0, 5);

  int executed = 0;
  long long class_hits = 0;
  for (int scenario = 0; scenario < 260; ++scenario) {
    DatabaseInstance db;
    ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                      "R",
                                      {{"A", ValueType::kInt64},
                                       {"B", ValueType::kInt64},
                                       {"C", ValueType::kInt64},
                                       {"D", ValueType::kInt64}})
                                      .value())
                    .ok());
    for (int i = rows(rng); i > 0; --i) {
      (void)db.Insert("R", Tuple({Value::Int64(val(rng)),
                                  Value::Int64(val(rng)),
                                  Value::Int64(val(rng)),
                                  Value::Int64(val(rng))}));
    }

    // Random views; both catalogs get the identical definition sequence
    // so their variable ids line up.
    ViewCatalog canonical_catalog(&db.schema());
    ViewCatalog fast_catalog(&db.schema());
    ViewConstants view_constants;
    const int view_count = nviews(rng);
    for (int v = 0; v < view_count; ++v) {
      std::set<int> view_targets;
      while (view_targets.empty()) {
        for (int c = 0; c < 4; ++c) {
          if (rng() % 2 == 0) view_targets.insert(c);
        }
      }
      std::vector<AttributeRef> targets;
      for (int c : view_targets) {
        targets.push_back(AttributeRef{"R", 1, kColumns[c]});
      }
      std::vector<Condition> conditions;
      for (int i = ncond(rng); i > 0; --i) {
        Condition cond;
        cond.lhs = AttributeRef{"R", 1, kColumns[col(rng)]};
        cond.op = static_cast<Comparator>(opd(rng));
        cond.rhs = ConditionOperand::Const(Value::Int64(val(rng)));
        conditions.push_back(std::move(cond));
      }
      std::string name = "V" + std::to_string(v);
      auto view =
          ConjunctiveQuery::Build(db.schema(), name, targets, conditions);
      if (!view.ok()) continue;
      if (!canonical_catalog.DefineView(name, *view).ok()) continue;
      ASSERT_TRUE(fast_catalog.DefineView(name, *view).ok());
      for (const Condition& cond : conditions) {
        view_constants[ColumnName(cond.lhs)].insert(
            cond.rhs.constant.int64_value());
      }
      ASSERT_TRUE(canonical_catalog.Permit(name, "u").ok());
      ASSERT_TRUE(fast_catalog.Permit(name, "u").ok());
    }

    // Random query.
    std::set<int> target_set;
    while (target_set.empty()) {
      for (int c = 0; c < 4; ++c) {
        if (rng() % 2 == 0) target_set.insert(c);
      }
    }
    std::vector<AttributeRef> targets;
    for (int c : target_set) {
      targets.push_back(AttributeRef{"R", 1, kColumns[c]});
    }
    std::vector<Condition> conditions;
    for (int i = ncond(rng); i > 0; --i) {
      Condition cond;
      cond.lhs = AttributeRef{"R", 1, kColumns[col(rng)]};
      cond.op = static_cast<Comparator>(opd(rng));
      cond.rhs = ConditionOperand::Const(Value::Int64(val(rng)));
      conditions.push_back(std::move(cond));
    }
    auto query = ConjunctiveQuery::Build(db.schema(), "q", targets,
                                         conditions);
    if (!query.ok()) continue;
    auto sibling = ConjunctiveQuery::Build(
        db.schema(), "sibling", targets,
        SiblingConditions(conditions, view_constants, scenario % 3 - 1));
    ASSERT_TRUE(sibling.ok()) << sibling.status();

    AuthorizationOptions options;
    options.four_case = rng() % 2 == 0;
    options.padding = rng() % 2 == 0;
    options.subsumption = rng() % 2 == 0;
    options.extended_masks = rng() % 2 == 0;

    ScenarioSetup setup{&db, &canonical_catalog, &fast_catalog};
    EXPECT_TRUE(
        PipelinesAgree(setup, *query, *sibling, options, &class_hits))
        << "scenario " << scenario;
    ++executed;
    if (HasFailure()) break;  // one divergence is enough detail
  }
  // The promoted tier's contract: at least 200 executed comparisons.
  EXPECT_GE(executed, 200);
  // The sibling leg must take class hits, not only misses.
  EXPECT_GE(class_hits, kMinSiblingClassHits);
}

TEST(DifferentialSoundness, TwoRelationJoinScenarios) {
  std::mt19937 rng(8062026);
  std::uniform_int_distribution<int> val(0, 7);
  std::uniform_int_distribution<int> rows(1, 14);

  int executed = 0;
  for (int scenario = 0; scenario < 120; ++scenario) {
    DatabaseInstance db;
    ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                      "R1",
                                      {{"K", ValueType::kInt64},
                                       {"A", ValueType::kInt64}},
                                      {0})
                                      .value())
                    .ok());
    ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                      "R2",
                                      {{"K", ValueType::kInt64},
                                       {"B", ValueType::kInt64}},
                                      {0})
                                      .value())
                    .ok());
    std::set<int64_t> keys;
    for (int i = rows(rng); i > 0; --i) keys.insert(val(rng));
    for (int64_t k : keys) {
      (void)db.Insert("R1", Tuple({Value::Int64(k), Value::Int64(val(rng))}));
      if (rng() % 4 != 0) {
        (void)db.Insert("R2",
                        Tuple({Value::Int64(k), Value::Int64(val(rng))}));
      }
    }

    const int64_t view_lo = val(rng);
    auto make_join_query = [&](const std::string& name, int64_t lo) {
      std::vector<AttributeRef> targets{AttributeRef{"R1", 1, "K"},
                                        AttributeRef{"R1", 1, "A"},
                                        AttributeRef{"R2", 1, "B"}};
      std::vector<Condition> conditions;
      Condition join;
      join.lhs = AttributeRef{"R1", 1, "K"};
      join.op = Comparator::kEq;
      join.rhs = ConditionOperand::Attr(AttributeRef{"R2", 1, "K"});
      conditions.push_back(join);
      Condition range;
      range.lhs = AttributeRef{"R1", 1, "A"};
      range.op = Comparator::kGe;
      range.rhs = ConditionOperand::Const(Value::Int64(lo));
      conditions.push_back(range);
      return ConjunctiveQuery::Build(db.schema(), name, targets, conditions);
    };

    ViewCatalog canonical_catalog(&db.schema());
    ViewCatalog fast_catalog(&db.schema());
    auto view = make_join_query("VJ", view_lo);
    ASSERT_TRUE(view.ok());
    if (!canonical_catalog.DefineView("VJ", *view).ok()) continue;
    ASSERT_TRUE(fast_catalog.DefineView("VJ", *view).ok());
    ASSERT_TRUE(canonical_catalog.Permit("VJ", "u").ok());
    ASSERT_TRUE(fast_catalog.Permit("VJ", "u").ok());

    const int64_t query_lo = view_lo + (rng() % 3);
    auto query = make_join_query("q", query_lo);
    ASSERT_TRUE(query.ok());
    // The range constant sits within the guard of the view's bound, so
    // the sibling moves it next to or onto that bound.
    auto sibling = make_join_query("sibling", view_lo + scenario % 3 - 1);
    ASSERT_TRUE(sibling.ok());

    AuthorizationOptions options;
    options.four_case = rng() % 2 == 0;
    options.padding = rng() % 2 == 0;
    options.subsumption = rng() % 2 == 0;
    options.extended_masks = rng() % 2 == 0;
    // Self-joins exercised here, over per-relation preparations of a
    // multi-relation query.
    options.self_joins = rng() % 2 == 0;

    ScenarioSetup setup{&db, &canonical_catalog, &fast_catalog};
    EXPECT_TRUE(PipelinesAgree(setup, *query, *sibling, options))
        << "join scenario " << scenario;
    ++executed;
    if (HasFailure()) break;
  }
  EXPECT_GE(executed, 100);
}

// Write-mix scenarios: a PERSISTENT fast authorizer (one cache living
// across the whole scenario) races a canonical oracle through an
// interleaving of permits, denies and inserts. Each step mutates both
// catalogs identically, then differences a query from a small repeating
// pool across the two data plans — canonical and vectorized — so cache
// entries that survive a mutation they depended on are caught by the
// very next repeat.
TEST(DifferentialSoundness, WriteMixMutationScenarios) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> val(0, 7);
  std::uniform_int_distribution<int> rows(2, 12);
  std::uniform_int_distribution<int> col(0, 3);
  std::uniform_int_distribution<int> ncond(0, 2);
  std::uniform_int_distribution<int> opd(0, 5);
  std::uniform_int_distribution<int> roll(0, 99);

  auto random_query = [&](const DatabaseInstance& db, const std::string& name)
      -> Result<ConjunctiveQuery> {
    std::set<int> target_set;
    while (target_set.empty()) {
      for (int c = 0; c < 4; ++c) {
        if (rng() % 2 == 0) target_set.insert(c);
      }
    }
    std::vector<AttributeRef> targets;
    for (int c : target_set) targets.push_back(AttributeRef{"R", 1, kColumns[c]});
    std::vector<Condition> conditions;
    for (int i = ncond(rng); i > 0; --i) {
      Condition cond;
      cond.lhs = AttributeRef{"R", 1, kColumns[col(rng)]};
      cond.op = static_cast<Comparator>(opd(rng));
      cond.rhs = ConditionOperand::Const(Value::Int64(val(rng)));
      conditions.push_back(std::move(cond));
    }
    return ConjunctiveQuery::Build(db.schema(), name, targets, conditions);
  };

  AuthorizationOptions canonical_options;
  canonical_options.enable_authz_cache = false;
  canonical_options.use_optimized_data_plan = false;
  AuthorizationOptions vectorized_options;  // defaults: cache + vectorized

  int compared = 0;
  long long cache_hits = 0;
  for (int scenario = 0; scenario < 40 && !HasFailure(); ++scenario) {
    DatabaseInstance db;
    ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                      "R",
                                      {{"A", ValueType::kInt64},
                                       {"B", ValueType::kInt64},
                                       {"C", ValueType::kInt64},
                                       {"D", ValueType::kInt64}})
                                      .value())
                    .ok());
    for (int i = rows(rng); i > 0; --i) {
      (void)db.Insert("R", Tuple({Value::Int64(val(rng)),
                                  Value::Int64(val(rng)),
                                  Value::Int64(val(rng)),
                                  Value::Int64(val(rng))}));
    }

    ViewCatalog canonical_catalog(&db.schema());
    ViewCatalog fast_catalog(&db.schema());
    std::vector<std::string> views;
    for (int v = 0; v < 3; ++v) {
      std::string name = "V" + std::to_string(v);
      auto view = random_query(db, name);
      if (!view.ok()) continue;
      if (!canonical_catalog.DefineView(name, *view).ok()) continue;
      ASSERT_TRUE(fast_catalog.DefineView(name, *view).ok());
      ASSERT_TRUE(canonical_catalog.Permit(name, "u").ok());
      ASSERT_TRUE(fast_catalog.Permit(name, "u").ok());
      views.push_back(std::move(name));
    }
    if (views.empty()) continue;

    // The repeating query pool: repeats within a scenario ride the
    // persistent cache unless an interleaved mutation dropped them.
    std::vector<ConjunctiveQuery> pool;
    for (int q = 0; q < 3; ++q) {
      auto query = random_query(db, "q" + std::to_string(q));
      if (query.ok()) pool.push_back(*std::move(query));
    }
    if (pool.empty()) continue;

    Authorizer canonical(&db, &canonical_catalog);
    AuthzCache cache;
    Authorizer fast(&db, &fast_catalog, &cache);

    for (int step = 0; step < 12; ++step) {
      const int action = roll(rng);
      const std::string& view = views[rng() % views.size()];
      if (action < 25) {  // permit (possibly re-permit after a deny)
        ASSERT_TRUE(canonical_catalog.Permit(view, "u").ok());
        ASSERT_TRUE(fast_catalog.Permit(view, "u").ok());
      } else if (action < 45) {  // deny (fails when already revoked —
                                 // both catalogs must agree either way)
        const bool c_ok = canonical_catalog.Deny(view, "u").ok();
        const bool f_ok = fast_catalog.Deny(view, "u").ok();
        ASSERT_EQ(c_ok, f_ok) << view;
      } else if (action < 65) {  // insert (shared database instance)
        (void)db.Insert("R", Tuple({Value::Int64(val(rng)),
                                    Value::Int64(val(rng)),
                                    Value::Int64(val(rng)),
                                    Value::Int64(val(rng))}));
      }
      // else: read-only step.

      const ConjunctiveQuery& query = pool[rng() % pool.size()];
      auto want = canonical.Retrieve("u", query, canonical_options);
      auto vectorized = fast.Retrieve("u", query, vectorized_options);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(vectorized.ok()) << vectorized.status();
      const Observed expected = Summarize(*want);
      EXPECT_TRUE(Summarize(*vectorized) == expected)
          << "vectorized plan diverged: scenario " << scenario << " step "
          << step << " query " << query.ToString();
      ++compared;
      if (HasFailure()) break;
    }
    cache_hits += cache.Snapshot().mask_hits;
  }
  EXPECT_GE(compared, 400);
  // The scenarios must actually exercise the cache across mutations.
  EXPECT_GT(cache_hits, 0);
}

// Disjunctive retrieves through the engine: the union of the branches'
// answers and the audit's counts must not depend on the plan. A
// canonical engine (no cache, canonical plan, interpretive masking) and
// a default engine run the same scenario and the same random 2-3-branch
// `or` retrieves, some branches overlapping by construction, some
// joining a second relation, some scenarios under extended masks; the
// rendered replies and each audit entry's outcome, affected and
// withheld counts must be equal. Since both engines share the merge,
// the counts are also checked against the union of the branches, each
// retrieved alone, taken through Relation's identity index.
TEST(DifferentialSoundness, DisjunctiveEngineScenarios) {
  std::mt19937 rng(20261020);
  std::uniform_int_distribution<int> val(0, 5);
  std::uniform_int_distribution<int> rows(1, 12);
  std::uniform_int_distribution<int> col(0, 2);
  std::uniform_int_distribution<int> opd(0, 5);
  std::uniform_int_distribution<int> ncond(1, 2);

  auto random_columns = [&] {
    std::vector<std::string> columns;
    while (columns.empty()) {
      for (int c = 0; c < 3; ++c) {
        if (rng() % 2 == 0) columns.push_back(std::string("R.") + kColumns[c]);
      }
    }
    return columns;
  };
  // `n` random conditions on R, joined by "and".
  auto random_conditions = [&](int n) {
    std::vector<std::string> conditions;
    for (int i = 0; i < n; ++i) {
      conditions.push_back(
          std::string("R.") + kColumns[col(rng)] + " " +
          std::string(ComparatorToString(static_cast<Comparator>(opd(rng)))) +
          " " + std::to_string(val(rng)));
    }
    return conditions;
  };
  auto join = [](const std::vector<std::string>& parts, const char* sep) {
    std::string out;
    for (const std::string& part : parts) {
      if (!out.empty()) out += sep;
      out += part;
    }
    return out;
  };

  int compared = 0;
  int partial = 0;
  int withheld = 0;
  for (int scenario = 0; scenario < 100 && !HasFailure(); ++scenario) {
    std::vector<std::string> script = {"relation R (A int, B int, C int)",
                                       "relation S (K int key, E int)"};
    for (int i = rows(rng); i > 0; --i) {
      script.push_back("insert into R values (" + std::to_string(val(rng)) +
                       ", " + std::to_string(val(rng)) + ", " +
                       std::to_string(val(rng)) + ")");
    }
    for (int k = 0; k <= 5; ++k) {
      if (rng() % 2 == 0) {
        script.push_back("insert into S values (" + std::to_string(k) +
                         ", " + std::to_string(val(rng)) + ")");
      }
    }
    // A view whose conditions contradict each other is refused by both
    // engines alike, and its permit then fails too.
    const int views = 1 + static_cast<int>(rng() % 3);
    for (int v = 0; v < views; ++v) {
      const std::string name = "V" + std::to_string(v);
      std::string view = "view " + name + " (" + join(random_columns(), ", ") +
                         ")";
      const int n = static_cast<int>(rng() % 3);
      if (n > 0) view += " where " + join(random_conditions(n), " and ");
      script.push_back(view);
      script.push_back("permit " + name + " to u");
    }
    if (rng() % 2 == 0) {
      script.push_back("view VS (R.A, R.B, S.E) where R.A = S.K and " +
                       random_conditions(1)[0]);
      script.push_back("permit VS to u");
    }

    Engine canonical;
    canonical.options().enable_authz_cache = false;
    canonical.options().use_optimized_data_plan = false;
    Engine fast;
    const bool extended = rng() % 2 == 0;
    canonical.options().extended_masks = extended;
    fast.options().extended_masks = extended;
    for (const std::string& statement : script) {
      ASSERT_EQ(canonical.Execute(statement).ok(),
                fast.Execute(statement).ok())
          << statement;
    }

    for (int q = 0; q < 3 && !HasFailure(); ++q) {
      std::vector<std::vector<std::string>> branches;
      const int count = 2 + static_cast<int>(rng() % 2);
      for (int b = 0; b < count; ++b) {
        if (b > 0 && rng() % 3 == 0) {
          // Overlapping: an earlier branch narrowed by one condition.
          branches.push_back(branches[rng() % branches.size()]);
          branches.back().push_back(random_conditions(1)[0]);
        } else {
          branches.push_back(random_conditions(ncond(rng)));
        }
        if (rng() % 4 == 0) branches.back().push_back("R.A = S.K");
      }
      const std::string head = "retrieve (" + join(random_columns(), ", ") +
                               ") where ";
      // The union oracle, independent of the engine's merge: each branch
      // retrieved alone on the canonical leg, its delivered and raw rows
      // unioned through Relation's identity index.
      Relation delivered_union;
      Relation raw_union;
      bool all_denied = true;
      std::vector<std::string> disjuncts;
      for (const auto& branch : branches) {
        disjuncts.push_back(join(branch, " and "));
        auto stmt = ParseStatement(head + disjuncts.back());
        ASSERT_TRUE(stmt.ok()) << stmt.status();
        auto query = ConjunctiveQuery::FromRetrieve(
            canonical.db().schema(), std::get<RetrieveStmt>(*stmt));
        ASSERT_TRUE(query.ok()) << query.status();
        auto alone = Authorizer(&canonical.db(), &canonical.catalog())
                         .Retrieve("u", *query, canonical.options());
        ASSERT_TRUE(alone.ok()) << alone.status();
        all_denied = all_denied && alone->denied;
        for (const Tuple& row : alone->answer.Materialize()) {
          delivered_union.InsertUnchecked(row);
        }
        for (const Tuple& row : alone->raw_answer.Materialize()) {
          raw_union.InsertUnchecked(row);
        }
      }
      const std::string text = head + join(disjuncts, " or ") + " as u";
      auto want = canonical.Execute(text);
      ASSERT_TRUE(want.ok()) << text << ": " << want.status();
      const AuditEntry want_audit = canonical.audit_log().entries().back();
      EXPECT_EQ(want_audit.outcome == AuditOutcome::kDenied, all_denied)
          << text;
      if (!all_denied) {
        EXPECT_EQ(want_audit.affected, delivered_union.size()) << text;
        EXPECT_EQ(want_audit.withheld,
                  std::max(0, raw_union.size() - delivered_union.size()))
            << text;
      }
      // The repeat is served from the fast engine's cache.
      for (int run = 0; run < 2; ++run) {
        auto got = fast.Execute(text);
        ASSERT_TRUE(got.ok()) << text << ": " << got.status();
        EXPECT_EQ(NormalizeSyntheticVars(*got), NormalizeSyntheticVars(*want))
            << "scenario " << scenario << ": " << text;
        const AuditEntry got_audit = fast.audit_log().entries().back();
        EXPECT_EQ(got_audit.outcome, want_audit.outcome) << text;
        EXPECT_EQ(got_audit.affected, want_audit.affected) << text;
        EXPECT_EQ(got_audit.withheld, want_audit.withheld) << text;
        ++compared;
      }
      if (want_audit.outcome == AuditOutcome::kPartial) ++partial;
      if (want_audit.withheld > 0) ++withheld;
    }
  }
  EXPECT_GE(compared, 500);
  // The campaign must reach partial deliveries that withhold rows.
  EXPECT_GE(partial, 40);
  EXPECT_GE(withheld, 40);
}

}  // namespace
}  // namespace viewauth
