// Unit and property tests for the relational algebra evaluators: the
// canonical products->selections->projections strategy and the
// vectorized (pushdown + hash join over columnar batches) strategy must
// agree on every query.

#include <gtest/gtest.h>

#include <random>

#include "algebra/evaluator.h"
#include "algebra/vectorized.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

ConjunctiveQuery Q(PaperDatabase& fixture, const std::string& text) {
  return fixture.Query(text);
}

TEST(Evaluator, SingleRelationSelection) {
  PaperDatabase fixture;
  ConjunctiveQuery query =
      Q(fixture,
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250000");
  auto result = EvaluateCanonical(query, fixture.db());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2);
  EXPECT_TRUE(result->Contains(Tuple({Value::String("bq-45")})));
  EXPECT_TRUE(result->Contains(Tuple({Value::String("sv-72")})));
}

TEST(Evaluator, ProjectionDeduplicates) {
  PaperDatabase fixture;
  // Six assignments project onto three distinct employees.
  ConjunctiveQuery query = Q(fixture, "retrieve (ASSIGNMENT.E_NAME)");
  auto result = EvaluateCanonical(query, fixture.db());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3);
}

TEST(Evaluator, ThreeWayJoin) {
  PaperDatabase fixture;
  ConjunctiveQuery query = Q(
      fixture,
      "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 300000");
  auto result = EvaluateCanonical(query, fixture.db());
  ASSERT_TRUE(result.ok());
  // sv-72 (450k): Jones and Brown.
  EXPECT_EQ(result->size(), 2);
  EXPECT_TRUE(result->Contains(
      Tuple({Value::String("Jones"), Value::String("sv-72")})));
}

TEST(Evaluator, SelfJoinQuery) {
  PaperDatabase fixture;
  ConjunctiveQuery query =
      Q(fixture,
        "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
        "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE");
  auto result = EvaluateCanonical(query, fixture.db());
  ASSERT_TRUE(result.ok());
  // All titles are unique: each employee pairs only with itself.
  EXPECT_EQ(result->size(), 3);
}

TEST(Evaluator, StatsAreCounted) {
  PaperDatabase fixture;
  ConjunctiveQuery query = Q(
      fixture,
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME");
  EvalStats canonical_stats;
  auto canonical =
      EvaluateCanonical(query, fixture.db(), "ANSWER", &canonical_stats);
  ASSERT_TRUE(canonical.ok());
  EvalStats vectorized_stats;
  auto vectorized =
      EvaluateVectorized(query, fixture.db(), "ANSWER", &vectorized_stats);
  ASSERT_TRUE(vectorized.ok());
  EXPECT_EQ(canonical_stats.rows_scanned, 9);  // 3 employees + 6 assignments
  EXPECT_EQ(vectorized_stats.rows_scanned, 9);
  // The hash join produces only matching pairs; the product builds all 18.
  EXPECT_GT(canonical_stats.intermediate_rows,
            vectorized_stats.intermediate_rows);
  EXPECT_EQ(canonical_stats.output_rows, vectorized_stats.output_rows);
}

TEST(Plan, CanonicalShapeAndPrinting) {
  PaperDatabase fixture;
  ConjunctiveQuery query = Q(
      fixture,
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME");
  std::unique_ptr<PlanNode> plan = BuildCanonicalPlan(query);
  ASSERT_EQ(plan->kind, PlanNodeKind::kProjection);
  ASSERT_EQ(plan->child->kind, PlanNodeKind::kSelection);
  ASSERT_EQ(plan->child->child->kind, PlanNodeKind::kProduct);
  std::string printed = plan->ToString();
  EXPECT_NE(printed.find("Projection"), std::string::npos);
  EXPECT_NE(printed.find("Scan(EMPLOYEE)"), std::string::npos);
}

TEST(Plan, SelectionOmittedWhenTrivial) {
  PaperDatabase fixture;
  ConjunctiveQuery query = Q(fixture, "retrieve (EMPLOYEE.NAME)");
  std::unique_ptr<PlanNode> plan = BuildCanonicalPlan(query);
  ASSERT_EQ(plan->kind, PlanNodeKind::kProjection);
  EXPECT_EQ(plan->child->kind, PlanNodeKind::kScan);
}

TEST(Evaluator, IndexedEqualityProbeMatchesScan) {
  PaperDatabase fixture;
  // String-typed equality: the vectorized plan probes the lazy hash
  // index.
  for (const char* text :
       {"retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme",
        "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
        "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
        "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
        "and PROJECT.SPONSOR = Acme",
        "retrieve (EMPLOYEE.SALARY) where EMPLOYEE.SALARY = 26000",
        // Missing key: empty either way.
        "retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Nowhere"}) {
    ConjunctiveQuery query = fixture.Query(text);
    auto canonical = EvaluateCanonical(query, fixture.db());
    auto vectorized = EvaluateVectorized(query, fixture.db());
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(vectorized.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*vectorized)) << text;
  }
}

TEST(Evaluator, RangeScanMatchesCanonical) {
  PaperDatabase fixture;
  for (const char* text :
       {"retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250000",
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET > 300000",
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET <= 300000",
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET < 150000",
        "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 200000 "
        "and PROJECT.BUDGET <= 400000",
        "retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME >= Br "
        "and EMPLOYEE.NAME < K"}) {
    ConjunctiveQuery query = fixture.Query(text);
    auto canonical = EvaluateCanonical(query, fixture.db());
    auto vectorized = EvaluateVectorized(query, fixture.db());
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(vectorized.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*vectorized)) << text;
  }
}

TEST(Evaluator, RangeScanReducesScannedRows) {
  PaperDatabase fixture;
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET > 300000");
  EvalStats stats;
  auto result = EvaluateVectorized(query, fixture.db(), "ANSWER", &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1);  // sv-72 (450k)
  EXPECT_EQ(stats.rows_scanned, 1);
}

TEST(Evaluator, IndexProbeReducesScannedRows) {
  PaperDatabase fixture;
  ConjunctiveQuery query = fixture.Query(
      "retrieve (ASSIGNMENT.P_NO) where ASSIGNMENT.E_NAME = Brown");
  EvalStats stats;
  auto result = EvaluateVectorized(query, fixture.db(), "ANSWER", &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2);
  // Only Brown's two assignment rows are touched, not all six.
  EXPECT_EQ(stats.rows_scanned, 2);
}

// ---------------------------------------------------------------------
// Property: the optimized data plan (vectorized, the one
// use_optimized_data_plan selects) == canonical on randomized databases
// and queries (the correctness precondition for Figure 2's commutative
// diagram).
// ---------------------------------------------------------------------

class PlanEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanEquivalenceTest, OptimizedMatchesCanonical) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> val(0, 4);
  std::uniform_int_distribution<int> rows(0, 12);

  // Random database: R(A,B), S(C,D), T(E) over small integer domains.
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
      // Equality-with-constant locals exercise the index-probe path.
      "retrieve (R.B) where R.A = 3",
      "retrieve (R.A, S.D) where R.B = S.C and S.D = 2 and R.A = 1",
  };
  for (const char* text : queries) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    auto query = ConjunctiveQuery::FromRetrieve(
        db.schema(), std::get<RetrieveStmt>(*stmt));
    ASSERT_TRUE(query.ok()) << text;
    auto canonical = EvaluateCanonical(*query, db);
    auto vectorized = EvaluateVectorized(*query, db);
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(vectorized.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*vectorized))
        << text << "\ncanonical: " << canonical->size()
        << " rows, vectorized: " << vectorized->size() << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace viewauth
