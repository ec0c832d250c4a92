// Tests for the late-materialized join pipeline (algebra/latemat.h), the
// in-place join-key hashing it relies on (storage/key_view.h), and the
// rows_scanned accounting contract shared by every data-side strategy.

#include <gtest/gtest.h>

#include <random>

#include "algebra/evaluator.h"
#include "algebra/latemat.h"
#include "algebra/optimizer.h"
#include "authz/compiled_mask.h"
#include "parser/parser.h"
#include "storage/key_view.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

// ---------------------------------------------------------------------
// KeyView: hash coherence with Tuple::Hash and strict equality.
// ---------------------------------------------------------------------

KeyView ViewOf(const std::vector<Value>& values) {
  KeyView view;
  for (const Value& v : values) view.Add(v);
  return view;
}

TEST(KeyView, HashMatchesTupleHashAcrossTypes) {
  const std::vector<std::vector<Value>> keys = {
      {Value::Int64(42)},
      {Value::Int64(-7), Value::Int64(0)},
      {Value::Double(3.25)},
      {Value::Double(5.0), Value::Int64(5)},
      {Value::String("Acme")},
      {Value::String(""), Value::String("bq-45")},
      {Value::Null()},
      {Value::Null(), Value::Int64(1), Value::String("x")},
      {},
  };
  for (const std::vector<Value>& values : keys) {
    const Tuple tuple{std::vector<Value>(values)};
    EXPECT_EQ(ViewOf(values).Hash(), tuple.Hash())
        << "key of arity " << values.size();
  }
}

TEST(KeyView, EqualityIsStrictAndCoherentWithHash) {
  // Strict Value equality: Int64(5) and Double(5.0) are different keys
  // even though Value::Satisfies(kEq) relates them numerically — this is
  // the Tuple::operator== semantics the hash join has always used.
  const std::vector<Value> int_key = {Value::Int64(5)};
  const std::vector<Value> double_key = {Value::Double(5.0)};
  EXPECT_FALSE(ViewOf(int_key) == ViewOf(double_key));
  EXPECT_TRUE(ViewOf(int_key) == ViewOf(int_key));

  // NULL == NULL for grouping purposes, as with Tuple equality.
  const std::vector<Value> null_key = {Value::Null()};
  EXPECT_TRUE(ViewOf(null_key) == ViewOf(null_key));

  // Equal views must hash equal (the unordered-map contract).
  const std::vector<Value> a = {Value::String("Jones"), Value::Int64(26000)};
  const std::vector<Value> b = {Value::String("Jones"), Value::Int64(26000)};
  ASSERT_TRUE(ViewOf(a) == ViewOf(b));
  EXPECT_EQ(ViewOf(a).Hash(), ViewOf(b).Hash());
}

// ---------------------------------------------------------------------
// Pipeline equivalence: latemat == optimized == canonical.
// ---------------------------------------------------------------------

TEST(LateMat, MatchesCanonicalOnPaperQueries) {
  PaperDatabase fixture;
  for (const char* text : {
           "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250000",
           "retrieve (ASSIGNMENT.E_NAME)",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
           "and PROJECT.BUDGET > 300000",
           "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
           "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
           "retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.SALARY >= PROJECT.BUDGET",  // cartesian + filter
           "retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Nowhere",
       }) {
    ConjunctiveQuery query = fixture.Query(text);
    auto canonical = EvaluateCanonical(query, fixture.db());
    auto latemat = EvaluateLateMaterialized(query, fixture.db());
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(latemat.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*latemat)) << text;
  }
}

class LateMatEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LateMatEquivalenceTest, MatchesCanonicalAndOptimized) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> val(0, 4);
  std::uniform_int_distribution<int> rows(0, 12);

  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "R",
                                    {{"A", ValueType::kInt64},
                                     {"B", ValueType::kInt64}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "S",
                                    {{"C", ValueType::kInt64},
                                     {"D", ValueType::kInt64}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(
                    RelationSchema::Make("T", {{"E", ValueType::kInt64}})
                        .value())
                  .ok());
  for (int i = rows(rng); i > 0; --i) {
    ASSERT_TRUE(db.Insert("R", Tuple({Value::Int64(val(rng)),
                                      Value::Int64(val(rng))}))
                    .ok());
  }
  for (int i = rows(rng); i > 0; --i) {
    ASSERT_TRUE(db.Insert("S", Tuple({Value::Int64(val(rng)),
                                      Value::Int64(val(rng))}))
                    .ok());
  }
  for (int i = rows(rng); i > 0; --i) {
    ASSERT_TRUE(db.Insert("T", Tuple({Value::Int64(val(rng))})).ok());
  }

  const char* queries[] = {
      "retrieve (R.A, S.D) where R.B = S.C",
      "retrieve (R.A) where R.B = S.C and S.D = T.E",
      "retrieve (R.A, R.B)",
      "retrieve (R.A, S.C) where R.A >= 2 and S.C < 3",
      "retrieve (R.A, S.D) where R.B != S.C",  // no equality: cartesian
      "retrieve (R:1.A, R:2.B) where R:1.B = R:2.A and R:1.A <= 2",
      "retrieve (R.A, S.C, T.E) where R.A = S.C and S.C = T.E",
      "retrieve (R.B) where R.A = 3",
      "retrieve (R.A, S.D) where R.B = S.C and S.D = 2 and R.A = 1",
      // Two equality keys between the same pair of atoms: a compound
      // join key.
      "retrieve (R.A, S.D) where R.A = S.C and R.B = S.D",
  };
  for (const char* text : queries) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    auto query = ConjunctiveQuery::FromRetrieve(
        db.schema(), std::get<RetrieveStmt>(*stmt));
    ASSERT_TRUE(query.ok()) << text;
    auto canonical = EvaluateCanonical(*query, db);
    auto optimized = EvaluateOptimized(*query, db);
    auto latemat = EvaluateLateMaterialized(*query, db);
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(optimized.ok()) << text;
    ASSERT_TRUE(latemat.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*latemat))
        << text << "\ncanonical: " << canonical->size()
        << " rows, latemat: " << latemat->size() << " rows";
    EXPECT_TRUE(optimized->SameTuples(*latemat)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LateMatEquivalenceTest,
                         ::testing::Range(1, 11));

// Mixed-type join keys: the strict in-place key equality must agree with
// the strict Tuple-key equality the optimizer uses, including the
// Int64/Double distinction and NULLs in non-key columns.
TEST(LateMat, MixedTypeJoinKeysMatchOptimized) {
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "L",
                                    {{"K", ValueType::kDouble},
                                     {"P", ValueType::kString}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "M",
                                    {{"K", ValueType::kDouble},
                                     {"Q", ValueType::kInt64}})
                                    .value())
                  .ok());
  auto ins = [&](const char* rel, Value k, Value v) {
    ASSERT_TRUE(db.Insert(rel, Tuple({std::move(k), std::move(v)})).ok());
  };
  ins("L", Value::Double(5.0), Value::String("five"));
  ins("L", Value::Double(2.5), Value::String("half"));
  ins("L", Value::Double(-0.0), Value::String("zero"));
  ins("M", Value::Double(5.0), Value::Int64(1));
  ins("M", Value::Double(2.5), Value::Int64(2));
  ins("M", Value::Double(0.0), Value::Int64(3));

  auto stmt = ParseStatement("retrieve (L.P, M.Q) where L.K = M.K");
  ASSERT_TRUE(stmt.ok());
  auto query = ConjunctiveQuery::FromRetrieve(db.schema(),
                                              std::get<RetrieveStmt>(*stmt));
  ASSERT_TRUE(query.ok());
  auto optimized = EvaluateOptimized(*query, db);
  auto latemat = EvaluateLateMaterialized(*query, db);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(latemat.ok());
  EXPECT_TRUE(optimized->SameTuples(*latemat));
}

// ---------------------------------------------------------------------
// rows_scanned contract: "rows fetched from storage and examined", the
// same in every strategy.
// ---------------------------------------------------------------------

TEST(LateMat, RowsScannedContractFullScan) {
  PaperDatabase fixture;
  // No indexable atom: every strategy examines all 3 + 6 rows.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME");
  EvalStats canonical, optimized, latemat;
  ASSERT_TRUE(
      EvaluateCanonical(query, fixture.db(), "ANSWER", &canonical).ok());
  ASSERT_TRUE(
      EvaluateOptimized(query, fixture.db(), "ANSWER", &optimized).ok());
  ASSERT_TRUE(
      EvaluateLateMaterialized(query, fixture.db(), "ANSWER", &latemat).ok());
  EXPECT_EQ(canonical.rows_scanned, 9);
  EXPECT_EQ(optimized.rows_scanned, 9);
  EXPECT_EQ(latemat.rows_scanned, 9);
}

TEST(LateMat, RowsScannedContractIndexProbe) {
  PaperDatabase fixture;
  // Hash-index probe on the key: exactly Brown's 2 assignment rows are
  // fetched and examined, in both index-aware strategies.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (ASSIGNMENT.P_NO) where ASSIGNMENT.E_NAME = Brown");
  EvalStats optimized, latemat;
  ASSERT_TRUE(
      EvaluateOptimized(query, fixture.db(), "ANSWER", &optimized).ok());
  ASSERT_TRUE(
      EvaluateLateMaterialized(query, fixture.db(), "ANSWER", &latemat).ok());
  EXPECT_EQ(optimized.rows_scanned, 2);
  EXPECT_EQ(latemat.rows_scanned, 2);
}

TEST(LateMat, RowsScannedContractRangeScan) {
  PaperDatabase fixture;
  // Ordered-index range: only the single row above 300000 is yielded.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET > 300000");
  EvalStats optimized, latemat;
  ASSERT_TRUE(
      EvaluateOptimized(query, fixture.db(), "ANSWER", &optimized).ok());
  ASSERT_TRUE(
      EvaluateLateMaterialized(query, fixture.db(), "ANSWER", &latemat).ok());
  EXPECT_EQ(optimized.rows_scanned, 1);
  EXPECT_EQ(latemat.rows_scanned, 1);
}

// ---------------------------------------------------------------------
// Late materialization observability: the pipeline materializes tuples
// only at the final projection and allocates no join-key tuples.
// ---------------------------------------------------------------------

TEST(LateMat, MaterializesOnlyFinalRows) {
  PaperDatabase fixture;
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER");
  EvalStats optimized, latemat;
  auto opt = EvaluateOptimized(query, fixture.db(), "ANSWER", &optimized);
  auto late =
      EvaluateLateMaterialized(query, fixture.db(), "ANSWER", &latemat);
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(opt->SameTuples(*late));

  // Six joined rows survive to the projection; latemat materializes
  // exactly those, while the optimizer also copied per-atom inputs and
  // concatenated every intermediate join row.
  EXPECT_EQ(latemat.tuples_materialized, 6);
  EXPECT_GT(optimized.tuples_materialized, latemat.tuples_materialized);

  // One key tuple per build row and per probe row would have been
  // allocated at each of the two joins; the in-place hashing avoided all
  // of them (the exact count depends on the join order's input sizes).
  EXPECT_GT(latemat.join_key_allocs_avoided, 0);
  EXPECT_EQ(optimized.join_key_allocs_avoided, 0);
}

// ---------------------------------------------------------------------
// End-to-end: the authorizer delivers identical masked answers with the
// late-materialized plan on and off.
// ---------------------------------------------------------------------

TEST(LateMat, AuthorizedRetrievalIdenticalAcrossDataPlans) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  for (const char* text : {
           "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
           "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
           "where PROJECT.BUDGET >= 200000",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
       }) {
    for (const char* user : {"Brown", "Klein"}) {
      ConjunctiveQuery query = fixture.Query(text);
      AuthorizationOptions with, without;
      // Pin latemat-vs-optimized: the vectorized plan (default on) would
      // otherwise shadow both legs.
      with.use_vectorized_data_plan = false;
      without.use_vectorized_data_plan = false;
      with.use_latemat_data_plan = true;
      without.use_latemat_data_plan = false;
      auto a = authorizer.Retrieve(user, query, with);
      auto b = authorizer.Retrieve(user, query, without);
      ASSERT_TRUE(a.ok()) << text;
      ASSERT_TRUE(b.ok()) << text;
      EXPECT_EQ(a->denied, b->denied) << text;
      EXPECT_EQ(a->full_access, b->full_access) << text;
      EXPECT_TRUE(a->raw_answer.SameTuples(b->raw_answer)) << text;
      EXPECT_TRUE(a->answer.SameTuples(b->answer)) << text;
    }
  }
}

// The compiled per-row check must agree with the interpretive
// RowSatisfies on every mask tuple the paper scenarios produce.
TEST(LateMat, CompiledMaskAgreesWithRowSatisfies) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  for (const char* text : {
           "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
           "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
       }) {
    for (const char* user : {"Brown", "Klein"}) {
      ConjunctiveQuery query = fixture.Query(text);
      auto mask = authorizer.DeriveMask(user, query);
      ASSERT_TRUE(mask.ok()) << text;
      auto answer = EvaluateLateMaterialized(query, fixture.db());
      ASSERT_TRUE(answer.ok()) << text;
      const CompiledMask compiled = CompiledMask::Compile(*mask);
      ASSERT_EQ(compiled.tuples.size(), mask->tuples().size());
      for (const Tuple& row : *answer) {
        for (size_t t = 0; t < compiled.tuples.size(); ++t) {
          EXPECT_EQ(compiled.tuples[t].Satisfies(row),
                    Authorizer::RowSatisfies(mask->tuples()[t], row))
              << text << " user=" << user << " tuple=" << t
              << " row=" << row.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace viewauth
