// Tests for disjunctive views (paper conclusion (2)): `or`-separated
// conjunctive branches under one grant name.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace viewauth {
namespace {

TEST(DisjunctiveParsing, OrBranches) {
  auto stmt = ParseStatement(
      "view V (R.A) where R.B = 1 and R.C = 2 or R.B = 3 or R.C > 9");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& view = std::get<ViewStmt>(*stmt);
  EXPECT_EQ(view.conditions.size(), 2u);
  ASSERT_EQ(view.or_branches.size(), 2u);
  EXPECT_EQ(view.or_branches[0].size(), 1u);
  EXPECT_EQ(view.or_branches[1].size(), 1u);
  // Round trip.
  auto reparsed = ParseStatement(view.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(std::get<ViewStmt>(*reparsed).ToString(), view.ToString());
}

TEST(DisjunctiveParsing, OrWithoutWhereRejected) {
  EXPECT_FALSE(ParseStatement("view V (R.A) or R.B = 1").ok());
}

class DisjunctiveViewsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
      insert into EMPLOYEE values (Jones, manager, 26000)
      insert into EMPLOYEE values (Smith, technician, 22000)
      insert into EMPLOYEE values (Brown, engineer, 32000)

      view JUNIOR_OR_MGR (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)
        where EMPLOYEE.SALARY < 25000
        or EMPLOYEE.TITLE = manager
      permit JUNIOR_OR_MGR to auditor
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Engine engine_;
};

TEST_F(DisjunctiveViewsTest, UnionOfBranchesDelivered) {
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY) "
      "as auditor");
  ASSERT_TRUE(out.ok()) << out.status();
  const AuthorizationResult* result = &*out;
  EXPECT_FALSE(result->denied);
  // Smith (22k, branch 1) and Jones (manager, branch 2) flow; Brown does
  // not match either branch.
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Smith"), Value::String("technician"),
             Value::Int64(22000)})));
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Jones"), Value::String("manager"),
             Value::Int64(26000)})));
  for (const Tuple& row : result->answer.Materialize()) {
    EXPECT_NE(row.at(0), Value::String("Brown"));
  }
}

// Without TITLE in the request, branch 2's mask is inexpressible and the
// base algorithm drops it (only Smith flows); the extended-mask option
// recovers Jones with a permit naming TITLE.
TEST_F(DisjunctiveViewsTest, BranchNeedingExtraAttribute) {
  auto base = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as auditor");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->answer.size(), 1);

  engine_.options().extended_masks = true;
  auto extended = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as auditor");
  ASSERT_TRUE(extended.ok());
  const AuthorizationResult* result = &*extended;
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Smith"), Value::Int64(22000)})));
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Jones"), Value::Int64(26000)})));
}

TEST_F(DisjunctiveViewsTest, BranchesRefineIndependently) {
  // A query inside branch 1's range clears that branch's restriction.
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.SALARY < 23000 as auditor");
  ASSERT_TRUE(out.ok());
  const AuthorizationResult* result = &*out;
  EXPECT_FALSE(result->denied);
  EXPECT_EQ(result->answer.size(), 1);
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Smith"), Value::Int64(22000)})));
}

TEST_F(DisjunctiveViewsTest, GroupGrantAndDenyAtomicity) {
  ASSERT_TRUE(engine_.Execute("deny JUNIOR_OR_MGR to auditor").ok());
  auto out = engine_.Retrieve("retrieve (EMPLOYEE.NAME) as auditor");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->denied);
}

TEST_F(DisjunctiveViewsTest, DropViewRemovesAllBranches) {
  ASSERT_TRUE(engine_.catalog().DropView("JUNIOR_OR_MGR").ok());
  EXPECT_FALSE(engine_.catalog().HasView("JUNIOR_OR_MGR"));
  auto out = engine_.Retrieve("retrieve (EMPLOYEE.NAME) as auditor");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->denied);
}

TEST_F(DisjunctiveViewsTest, ContradictoryBranchSkipped) {
  auto setup = engine_.ExecuteScript(R"(
    view PARTIAL (EMPLOYEE.NAME)
      where EMPLOYEE.SALARY > 5 and EMPLOYEE.SALARY < 3
      or EMPLOYEE.TITLE = engineer
    permit PARTIAL to viewer
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto branches = engine_.catalog().GetViewBranches("PARTIAL");
  ASSERT_TRUE(branches.ok());
  EXPECT_EQ(branches->size(), 1u);  // the contradictory branch vanished
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.TITLE = engineer as viewer");
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->denied);
}

TEST_F(DisjunctiveViewsTest, AllBranchesContradictoryRejected) {
  auto out = engine_.Execute(
      "view BAD (EMPLOYEE.NAME) "
      "where EMPLOYEE.SALARY > 5 and EMPLOYEE.SALARY < 3 "
      "or EMPLOYEE.SALARY > 9 and EMPLOYEE.SALARY < 7");
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST_F(DisjunctiveViewsTest, MaskLabelsUseGrantName) {
  auto query_stmt = ParseStatement(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
  ASSERT_TRUE(query_stmt.ok());
  auto query = ConjunctiveQuery::FromRetrieve(
      engine_.db().schema(), std::get<RetrieveStmt>(*query_stmt));
  ASSERT_TRUE(query.ok());
  Authorizer authorizer(&engine_.db(), &engine_.catalog());
  auto mask = authorizer.DeriveMask("auditor", *query);
  ASSERT_TRUE(mask.ok());
  for (const MetaTuple& tuple : mask->tuples()) {
    EXPECT_TRUE(tuple.views().contains("JUNIOR_OR_MGR"))
        << tuple.ViewLabel();
  }
}

}  // namespace
}  // namespace viewauth
