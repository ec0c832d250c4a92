// Class-keyed decisions: the hazards of serving one S' derivation to
// every query whose constants share an order class. Each case compares
// what the cached pipeline returns — a class hit or a miss — with a
// cache-off derivation of the same query, and checks which of the two
// it was.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "authz/authorizer.h"
#include "authz/authz_cache.h"
#include "authz/constant_class.h"
#include "engine/engine.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::Observed;
using testing_util::Summarize;

// R(K key, A, B int, D double), S(X, Y string) and T(K key, C int), with
// range views on R.B (bounds 100, 200 and 300), the string views of the
// typed-key regression (a constant v0 spelled like a variable) and one
// bound on T.C, granted to u.
class ConstantClassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto out = engine_.ExecuteScript(R"(
      relation R (K int key, A int, B int, D double)
      relation S (X string, Y string)
      relation T (K int key, C int)
      insert into R values (1, 10, 50, 0.5)
      insert into R values (2, 20, 150, 1.5)
      insert into R values (3, 30, 250, 2.5)
      insert into R values (4, 40, 350, 3.5)
      insert into R values (5, 50, 5000, 4.5)
      insert into S values (w, w)
      insert into S values (v0, v0)
      insert into S values (a, b)
      insert into T values (1, 199)
      insert into T values (2, 250)
      view GT (R.K, R.A, R.B) where R.B > 100
      view GE (R.K, R.B, R.D) where R.B >= 200
      view LT (R.K, R.A) where R.B < 300
      view V2 (S.X, S.Y) where S.X = v0 and S.Y = v0
      view V1 (S.X, S.Y) where S.X = S.Y
      view TC (T.K, T.C) where T.C >= 200
      permit GT to u
      permit GE to u
      permit LT to u
      permit V2 to u
      permit V1 to u
      permit TC to u
    )");
    ASSERT_TRUE(out.ok()) << out.status();
  }

  // Retrieves `text` as u through the cache and through a cache-off
  // derivation, and reports whether the cached run agreed and whether it
  // was served by a class hit.
  struct Run {
    bool agrees = false;
    bool class_hit = false;
    bool hit = false;
  };
  Run Check(const std::string& query) {
    const std::string text = query + " as u";
    engine_.options().enable_authz_cache = false;
    auto oracle = engine_.Retrieve(text);
    engine_.options().enable_authz_cache = true;
    const AuthzStats before = engine_.authz_stats();
    auto cached = engine_.Retrieve(text);
    const AuthzStats after = engine_.authz_stats();
    EXPECT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_TRUE(cached.ok()) << cached.status();
    Run run;
    if (!oracle.ok() || !cached.ok()) return run;
    run.agrees = Summarize(*oracle) == Summarize(*cached);
    run.class_hit = after.class_hits > before.class_hits;
    run.hit = after.mask_hits > before.mask_hits;
    return run;
  }

  Engine engine_;
};

constexpr const char* kRQuery = "retrieve (R.K, R.A, R.B)";

std::string Where(const std::string& condition) {
  return std::string(kRQuery) + " where " + condition;
}

// Far from every bound, siblings share a class; at a bound's v-1, v and
// v+1 a constant has no class of its own (its decision keeps the exact
// key), so it can neither fill nor take a class entry. (The seeds of `<`
// lie below every bound: above 100, `R.B < c` overlaps GT and conjoins
// c into the mask, which keeps the exact key too.)
TEST_F(ConstantClassTest, IntNeighboursOfBoundsKeepExactKeys) {
  struct Case {
    const char* op;
    int seed;
    int sibling;
  };
  for (const Case& c : {Case{">", 1000, 2000}, Case{">=", 1000, 2000},
                        Case{"<", -1000, -2000}}) {
    SCOPED_TRACE(c.op);
    const std::string column = std::string("R.B ") + c.op + " ";
    Run seed = Check(Where(column + std::to_string(c.seed)));
    EXPECT_TRUE(seed.agrees);
    EXPECT_FALSE(seed.hit);
    Run sibling = Check(Where(column + std::to_string(c.sibling)));
    EXPECT_TRUE(sibling.agrees);
    EXPECT_TRUE(sibling.class_hit);
    for (int bound : {100, 200, 300}) {
      for (int near : {bound - 1, bound, bound + 1}) {
        SCOPED_TRACE(near);
        Run run = Check(Where(column + std::to_string(near)));
        EXPECT_TRUE(run.agrees);
        EXPECT_FALSE(run.class_hit);
      }
    }
  }
  // What the guard is for: T.C > 199 tightens to T.C >= 200, implies
  // TC's bound and clears it; T.C > 198 does not. Were the two one
  // class, the first's decision would deliver the row at 199 to the
  // second unrestricted.
  Run tight = Check("retrieve (T.K, T.C) where T.C > 199");
  EXPECT_TRUE(tight.agrees);
  Run loose = Check("retrieve (T.K, T.C) where T.C > 198");
  EXPECT_TRUE(loose.agrees);
  EXPECT_FALSE(loose.class_hit);
}

// Two query constants in one component: their order and (small) gap are
// part of the class.
TEST_F(ConstantClassTest, EqualConstantsInOneComponent) {
  Run equal = Check(Where("R.B >= 1000 and R.B <= 1000"));
  EXPECT_TRUE(equal.agrees);
  Run equal_sibling = Check(Where("R.B >= 2000 and R.B <= 2000"));
  EXPECT_TRUE(equal_sibling.agrees);
  EXPECT_TRUE(equal_sibling.class_hit);

  // An empty range is another class, and a one-wide range a third.
  Run apart = Check(Where("R.B >= 3001 and R.B <= 3000"));
  EXPECT_TRUE(apart.agrees);
  EXPECT_FALSE(apart.class_hit);
  Run adjacent = Check(Where("R.B >= 3000 and R.B <= 3001"));
  EXPECT_TRUE(adjacent.agrees);
  EXPECT_FALSE(adjacent.class_hit);
  Run adjacent_sibling = Check(Where("R.B >= 4000 and R.B <= 4001"));
  EXPECT_TRUE(adjacent_sibling.agrees);
  EXPECT_TRUE(adjacent_sibling.class_hit);

  // One constant on two unlinked columns: K and B are two components,
  // so each constant is placed in its own.
  Run split = Check(Where("R.K = 1000 and R.B = 1000"));
  EXPECT_TRUE(split.agrees);
  Run split_sibling = Check(Where("R.K = 2000 and R.B = 1500"));
  EXPECT_TRUE(split_sibling.agrees);
  EXPECT_TRUE(split_sibling.class_hit);
}

// A case-4 overlap conjoins the query's constant into the mask: that
// decision stays on the exact key, and its sibling misses.
TEST_F(ConstantClassTest, MaskNamingItsConstantStaysExact) {
  Run conjoined = Check(Where("R.B < 5000"));
  EXPECT_TRUE(conjoined.agrees);
  EXPECT_FALSE(conjoined.hit);
  Run sibling = Check(Where("R.B < 6000"));
  EXPECT_TRUE(sibling.agrees);
  EXPECT_FALSE(sibling.hit);
  // The exact key still serves its own repeat.
  Run repeat = Check(Where("R.B < 6000"));
  EXPECT_TRUE(repeat.agrees);
  EXPECT_TRUE(repeat.hit);
  EXPECT_FALSE(repeat.class_hit);
}

// String constants: equal to a view constant (v0) a constant is fixed by
// its class; between view constants it is free, ordered like any other.
// X and Y share V1's variable, so they form one component.
TEST_F(ConstantClassTest, StringConstants) {
  const std::string s = "retrieve (S.X, S.Y) where ";
  Run fixed = Check(s + "S.X = v0");
  EXPECT_TRUE(fixed.agrees);
  Run fixed_repeat = Check(s + "S.X = v0");
  EXPECT_TRUE(fixed_repeat.agrees);
  EXPECT_TRUE(fixed_repeat.class_hit);  // the mask names v0, a fixed constant

  // Alone, a free constant is conjoined into V1's tuple (X = Y cannot be
  // cleared by X = w), so the decision keeps its exact key.
  Run lone = Check(s + "S.X = w");
  EXPECT_TRUE(lone.agrees);
  Run lone_sibling = Check(s + "S.X = x");
  EXPECT_TRUE(lone_sibling.agrees);
  EXPECT_FALSE(lone_sibling.hit);

  // On both columns the query implies X = Y and clears V1's variable.
  Run pair = Check(s + "S.X = w and S.Y = w");
  EXPECT_TRUE(pair.agrees);
  EXPECT_FALSE(pair.hit);
  Run pair_sibling = Check(s + "S.X = z and S.Y = z");
  EXPECT_TRUE(pair_sibling.agrees);
  EXPECT_TRUE(pair_sibling.class_hit);
  // A string spelled like a variable is just a string: v1 lies above v0,
  // in the same interval as w and z.
  Run spelled = Check(s + "S.X = v1 and S.Y = v1");
  EXPECT_TRUE(spelled.agrees);
  EXPECT_TRUE(spelled.class_hit);
  // Below v0, or unequal, is another class.
  Run below = Check(s + "S.X = a and S.Y = a");
  EXPECT_TRUE(below.agrees);
  EXPECT_FALSE(below.class_hit);
  Run unequal = Check(s + "S.X = w and S.Y = z");
  EXPECT_TRUE(unequal.agrees);
  EXPECT_FALSE(unequal.class_hit);
}

// A double constant (here on an int column) has no class.
TEST_F(ConstantClassTest, DoubleConstantOnIntColumnKeepsExactKey) {
  Run first = Check(Where("R.B > 1500.5"));
  EXPECT_TRUE(first.agrees);
  Run second = Check(Where("R.B > 1600.5"));
  EXPECT_TRUE(second.agrees);
  EXPECT_FALSE(second.hit);
  Run int_sibling = Check(Where("R.B > 1700"));
  EXPECT_TRUE(int_sibling.agrees);
  EXPECT_FALSE(int_sibling.class_hit);
}

// A deny between two class hits drops the class entry: the third query
// of the class derives afresh, under the narrower grants.
TEST_F(ConstantClassTest, DenyDropsTheClassEntry) {
  ASSERT_TRUE(Check(Where("R.B > 1000")).agrees);
  Run hit = Check(Where("R.B > 2000"));
  EXPECT_TRUE(hit.agrees);
  EXPECT_TRUE(hit.class_hit);
  ASSERT_TRUE(engine_.Execute("deny GT to u").ok());
  Run after_deny = Check(Where("R.B > 3000"));
  EXPECT_TRUE(after_deny.agrees);
  EXPECT_FALSE(after_deny.hit);
  Run hit_again = Check(Where("R.B > 4000"));
  EXPECT_TRUE(hit_again.agrees);
  EXPECT_TRUE(hit_again.class_hit);
}

// A reader pinned to an older catalog never takes a class entry filled
// at a newer one, and its own fill is rejected.
TEST(ConstantClassSnapshotTest, OldSnapshotReaderMissesNewerClassEntry) {
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "R",
                                    {{"K", ValueType::kInt64},
                                     {"B", ValueType::kInt64}},
                                    {0})
                                    .value())
                  .ok());
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(db.Insert("R", Tuple({Value::Int64(k),
                                      Value::Int64(1000 * k)}))
                    .ok());
  }
  auto schema = std::shared_ptr<const DatabaseSchema>(
      &db.schema(), [](const DatabaseSchema*) {});
  auto old_catalog = std::make_shared<ViewCatalog>(schema);
  for (const char* text : {"view HIGH (R.K, R.B) where R.B > 100",
                           "view ALL_R (R.K, R.B)"}) {
    auto view = ParseStatement(text);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(old_catalog->DefineView(std::get<ViewStmt>(*view)).ok());
  }
  ASSERT_TRUE(old_catalog->Permit("HIGH", "u").ok());
  std::shared_ptr<ViewCatalog> new_catalog = old_catalog->Clone(schema);
  ASSERT_TRUE(new_catalog->Permit("ALL_R", "u").ok());

  auto query = [&](int c) {
    auto stmt = ParseStatement("retrieve (R.K, R.B) where R.B < " +
                               std::to_string(c));
    EXPECT_TRUE(stmt.ok());
    return ConjunctiveQuery::FromRetrieve(db.schema(),
                                          std::get<RetrieveStmt>(*stmt))
        .value();
  };
  AuthorizationOptions off;
  off.enable_authz_cache = false;
  auto oracle = [&](const ViewCatalog* catalog, int c) {
    auto result = Authorizer(&db, catalog).Retrieve("u", query(c), off);
    EXPECT_TRUE(result.ok()) << result.status();
    return Summarize(*result);
  };

  AuthzCache cache;
  Authorizer newer(&db, new_catalog.get(), &cache);
  Authorizer older(&db, old_catalog.get(), &cache);
  auto at_new = newer.Retrieve("u", query(5000));
  ASSERT_TRUE(at_new.ok());
  EXPECT_TRUE(at_new->full_access);
  EXPECT_EQ(Summarize(*at_new), oracle(new_catalog.get(), 5000));

  // The old reader's sibling: same class, older grants.
  auto at_old = older.Retrieve("u", query(6000));
  ASSERT_TRUE(at_old.ok());
  EXPECT_FALSE(at_old->full_access);
  EXPECT_EQ(Summarize(*at_old), oracle(old_catalog.get(), 6000));
  EXPECT_EQ(cache.Snapshot().class_hits, 0);

  // Its fill was rejected; the newer reader's class entry still serves.
  auto again = newer.Retrieve("u", query(7000));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Summarize(*again), oracle(new_catalog.get(), 7000));
  EXPECT_EQ(cache.Snapshot().class_hits, 1);
}

// Two threads fill one class at once, each with its own constants:
// whichever store lands, both answers and every later sibling's match
// the cache-off derivation. (tools/check.sh runs this under TSan.)
TEST_F(ConstantClassTest, TwoThreadsFillOneClass) {
  constexpr int kPerThread = 40;
  auto text = [](int thread, int i) {
    return Where("R.B > " + std::to_string(1000 + 100 * i + thread)) +
           " as u";
  };
  std::vector<std::vector<Observed>> expected(2);
  engine_.options().enable_authz_cache = false;
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto result = engine_.Retrieve(text(t, i));
      ASSERT_TRUE(result.ok()) << result.status();
      expected[t].push_back(Summarize(*result));
    }
  }
  engine_.options().enable_authz_cache = true;
  engine_.ResetAuthzStats();

  std::vector<int> mismatches(2, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto result = engine_.Retrieve(text(t, i));
        if (!result.ok() || !(Summarize(*result) == expected[t][i])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  const AuthzStats stats = engine_.authz_stats();
  EXPECT_EQ(stats.mask_hits + stats.mask_misses, 2 * kPerThread);
  EXPECT_GE(stats.class_hits, 2 * kPerThread - 2);
}

}  // namespace
}  // namespace viewauth
