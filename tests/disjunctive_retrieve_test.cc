// Tests for disjunctive retrieve statements (union of authorized
// conjunctive branches).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace viewauth {
namespace {

class DisjunctiveRetrieveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
      insert into EMPLOYEE values (Jones, manager, 26000)
      insert into EMPLOYEE values (Smith, technician, 22000)
      insert into EMPLOYEE values (Brown, engineer, 32000)
      view ALL_OF_IT (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)
      view CHEAP (EMPLOYEE.NAME, EMPLOYEE.SALARY)
        where EMPLOYEE.SALARY < 25000
      permit ALL_OF_IT to boss
      permit CHEAP to clerk
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Engine engine_;
};

TEST_F(DisjunctiveRetrieveTest, Parsing) {
  auto stmt = ParseStatement(
      "retrieve (R.A) where R.B = 1 or R.B = 2 and R.C > 0 as u");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& retrieve = std::get<RetrieveStmt>(*stmt);
  EXPECT_EQ(retrieve.conditions.size(), 1u);
  ASSERT_EQ(retrieve.or_branches.size(), 1u);
  EXPECT_EQ(retrieve.or_branches[0].size(), 2u);
  EXPECT_EQ(retrieve.as_user, "u");
  // Round trip.
  auto again = ParseStatement(retrieve.ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::get<RetrieveStmt>(*again).ToString(),
            retrieve.ToString());
  EXPECT_FALSE(ParseStatement("retrieve (R.A) or R.B = 1").ok());
}

TEST_F(DisjunctiveRetrieveTest, UnionOfBranches) {
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.TITLE = manager "
      "or EMPLOYEE.TITLE = engineer as boss");
  ASSERT_TRUE(out.ok()) << out.status();
  const AuthorizationResult* result = &*out;
  EXPECT_FALSE(result->denied);
  EXPECT_TRUE(result->full_access);  // both branches fully inside the view
  EXPECT_EQ(result->answer.size(), 2);
  const Relation delivered = result->answer.Materialize();
  EXPECT_TRUE(delivered.Contains(Tuple({Value::String("Jones")})));
  EXPECT_TRUE(delivered.Contains(Tuple({Value::String("Brown")})));
}

TEST_F(DisjunctiveRetrieveTest, BranchesAuthorizeIndependently) {
  // The clerk's CHEAP view covers salaries < 25000: branch 1 is inside,
  // branch 2 (high earners) is denied — the union delivers branch 1.
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.SALARY < 23000 or EMPLOYEE.SALARY > 31000 as clerk");
  ASSERT_TRUE(out.ok()) << out.status();
  const AuthorizationResult* result = &*out;
  EXPECT_FALSE(result->denied);
  EXPECT_FALSE(result->full_access);
  ASSERT_EQ(result->answer.size(), 1);
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Smith"), Value::Int64(22000)})));
}

TEST_F(DisjunctiveRetrieveTest, AllBranchesDeniedMeansDenied) {
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.TITLE) where EMPLOYEE.SALARY < 23000 "
      "or EMPLOYEE.SALARY > 31000 as clerk");  // TITLE not in CHEAP
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->denied);
}

TEST_F(DisjunctiveRetrieveTest, ExtendedMasksAcrossBranches) {
  // Under extended masks the branch masks are wide; the union must stay
  // well-formed and deliver the union of the branch portions.
  engine_.options().extended_masks = true;
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.SALARY < 23000 or EMPLOYEE.TITLE = manager "
      "as clerk");
  ASSERT_TRUE(out.ok()) << out.status();
  const AuthorizationResult* result = &*out;
  EXPECT_FALSE(result->denied);
  // Branch 1 (inside CHEAP) delivers Smith; branch 2 filters on TITLE,
  // which CHEAP neither projects nor restricts, so it contributes
  // nothing.
  ASSERT_EQ(result->answer.size(), 1);
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Smith"), Value::Int64(22000)})));
}

TEST_F(DisjunctiveRetrieveTest, DuplicateRowsCollapse) {
  // Overlapping branches: each matching row is delivered once.
  auto out = engine_.Retrieve(
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.SALARY > 20000 "
      "or EMPLOYEE.SALARY > 25000 as boss");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->answer.size(), 3);
}

TEST_F(DisjunctiveRetrieveTest, AuditCountsOverlappingBranchesOnce) {
  // Both branches hold Jones and Smith; the unmasked union is all three
  // employees. CHEAP delivers Smith alone, so two rows are withheld, not
  // the four a per-branch count would give.
  ASSERT_TRUE(engine_
                  .Execute("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
                           "where EMPLOYEE.SALARY > 20000 "
                           "or EMPLOYEE.SALARY < 30000 as clerk")
                  .ok());
  const AuditLog& log = engine_.audit_log();
  ASSERT_EQ(log.size(), 1);
  EXPECT_EQ(log.entries()[0].outcome, AuditOutcome::kPartial);
  EXPECT_EQ(log.entries()[0].affected, 1);
  EXPECT_EQ(log.entries()[0].withheld, 2);
}

// Under extended masks, branches over E x F and E x G carry wide masks
// of equal arity but different columns. The merged mask keeps the
// first branch's tuples only: a G tuple must not land under F's column
// names.
TEST_F(DisjunctiveRetrieveTest, MasksOfEqualArityCombineOnlyByLayout) {
  auto setup = engine_.ExecuteScript(R"(
    relation E (NAME string key, X int)
    relation F (NAME string key, A int)
    relation G (NAME string key, B int)
    insert into E values (Jones, 1)
    insert into F values (Jones, 2)
    insert into G values (Jones, 3)
    view EF (E.NAME, F.A) where E.NAME = F.NAME and F.A > 0
    view EG (E.NAME, G.B) where E.NAME = G.NAME and G.B > 0
    permit EF to u
    permit EG to u
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  engine_.options().extended_masks = true;
  auto first =
      engine_.Retrieve("retrieve (E.NAME) where E.NAME = F.NAME as u");
  auto second =
      engine_.Retrieve("retrieve (E.NAME) where E.NAME = G.NAME as u");
  auto both = engine_.Retrieve(
      "retrieve (E.NAME) where E.NAME = F.NAME or E.NAME = G.NAME as u");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(both.ok()) << both.status();
  ASSERT_EQ(both->mask().arity(), second->mask().arity());
  ASSERT_FALSE(second->mask().tuples().empty());
  auto keys = [](const MetaRelation& mask) {
    std::vector<std::string> out;
    for (const MetaTuple& tuple : mask.tuples()) {
      out.push_back(tuple.StructuralKey(/*include_provenance=*/false));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(both->mask().columns(), first->mask().columns());
  EXPECT_EQ(keys(both->mask()), keys(first->mask()));
  // Both branches still deliver and contribute their permits.
  EXPECT_EQ(both->answer.size(), 1);
  EXPECT_EQ(both->permits().size(),
            first->permits().size() + second->permits().size());
}

}  // namespace
}  // namespace viewauth
