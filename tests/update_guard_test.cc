// Tests for update permissions (paper conclusion (1)): insert and
// delete authorization through update-mode views.

#include "authz/update_guard.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace viewauth {
namespace {

class UpdateGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation PROJECT (NUMBER string key, SPONSOR string, BUDGET int)
      insert into PROJECT values (p1, Acme, 100000)
      insert into PROJECT values (p2, Acme, 400000)
      insert into PROJECT values (p3, Apex, 250000)

      view ACME_FULL (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
        where PROJECT.SPONSOR = Acme
      view SMALL (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
        where PROJECT.BUDGET < 200000
      view NUMBERS_ONLY (PROJECT.NUMBER)

      permit ACME_FULL to editor for insert
      permit SMALL to editor for delete
      permit NUMBERS_ONLY to narrow for insert
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  int ProjectRows() {
    return (*engine_.db().GetRelation("PROJECT"))->size();
  }

  Engine engine_;
};

TEST_F(UpdateGuardTest, InsertWithinWindowSucceeds) {
  auto out = engine_.Execute(
      "insert into PROJECT values (p9, Acme, 900000) as editor");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(ProjectRows(), 4);
}

TEST_F(UpdateGuardTest, InsertOutsideWindowDenied) {
  auto out = engine_.Execute(
      "insert into PROJECT values (p9, Apex, 900000) as editor");
  EXPECT_TRUE(out.status().IsPermissionDenied());
  EXPECT_EQ(ProjectRows(), 3);
}

TEST_F(UpdateGuardTest, InsertRequiresFullWidthView) {
  // NUMBERS_ONLY projects one attribute: no whole-row window.
  auto out = engine_.Execute(
      "insert into PROJECT values (p9, Acme, 1) as narrow");
  EXPECT_TRUE(out.status().IsPermissionDenied());
}

TEST_F(UpdateGuardTest, InsertModeIsSeparateFromRetrieve) {
  // The insert grant does not let the editor retrieve.
  auto out = engine_.Execute("retrieve (PROJECT.NUMBER) as editor");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("permission denied"), std::string::npos);
}

TEST_F(UpdateGuardTest, AdministrativeStatementsBypass) {
  EXPECT_TRUE(
      engine_.Execute("insert into PROJECT values (p9, Zeus, 1)").ok());
  auto removed = engine_.Execute("delete from PROJECT where "
                                 "PROJECT.SPONSOR = Zeus");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, "deleted 1 row(s)");
}

TEST_F(UpdateGuardTest, DeleteWithinWindow) {
  auto out = engine_.Execute(
      "delete from PROJECT where PROJECT.BUDGET < 150000 as editor");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "deleted 1 row(s)");  // p1 (100k, inside SMALL)
  EXPECT_EQ(ProjectRows(), 2);
}

TEST_F(UpdateGuardTest, DeleteWithheldRowsSurvive) {
  // Matching rows outside the SMALL window stay: p2 (400k) and p3 (250k)
  // match SPONSOR-free budget predicate >= 200000 but are not deletable.
  auto out = engine_.Execute(
      "delete from PROJECT where PROJECT.BUDGET >= 100000 as editor");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "deleted 1 row(s) (2 withheld by permissions)");
  EXPECT_EQ(ProjectRows(), 2);
}

TEST_F(UpdateGuardTest, DeletePredicateMustBeCovered) {
  // Grant a delete window that hides SPONSOR; a sponsor-based predicate
  // would leak through the deletion outcome and is rejected.
  auto setup = engine_.ExecuteScript(R"(
    view NO_SPONSOR (PROJECT.NUMBER, PROJECT.BUDGET)
    permit NO_SPONSOR to trimmer for delete
  )");
  ASSERT_TRUE(setup.ok());
  auto out = engine_.Execute(
      "delete from PROJECT where PROJECT.SPONSOR = Acme as trimmer");
  EXPECT_TRUE(out.status().IsPermissionDenied());
  EXPECT_EQ(ProjectRows(), 3);

  // A budget-based predicate is covered and works.
  auto ok = engine_.Execute(
      "delete from PROJECT where PROJECT.BUDGET > 300000 as trimmer");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, "deleted 1 row(s)");
}

TEST_F(UpdateGuardTest, DeleteWithoutAnyGrantDenied) {
  auto out = engine_.Execute(
      "delete from PROJECT where PROJECT.BUDGET > 0 as stranger");
  EXPECT_TRUE(out.status().IsPermissionDenied());
}

TEST_F(UpdateGuardTest, DenyForModeRemovesOnlyThatMode) {
  ASSERT_TRUE(engine_.Execute("permit SMALL to editor for insert").ok());
  ASSERT_TRUE(engine_.Execute("deny SMALL to editor for delete").ok());
  // Insert via SMALL still works...
  EXPECT_TRUE(engine_
                  .Execute("insert into PROJECT values (p8, Any, 1000) "
                           "as editor")
                  .ok());
  // ...but deletes are gone.
  auto out = engine_.Execute(
      "delete from PROJECT where PROJECT.BUDGET < 150000 as editor");
  EXPECT_TRUE(out.status().IsPermissionDenied());
}

class ModifyGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
      insert into EMPLOYEE values (Jones, manager, 26000)
      insert into EMPLOYEE values (Smith, technician, 22000)
      insert into EMPLOYEE values (Brown, engineer, 32000)

      view JUNIOR (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)
        where EMPLOYEE.SALARY < 30000
      permit JUNIOR to hr for modify
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Value SalaryOf(const char* name) {
    const Relation* rel = *engine_.db().GetRelation("EMPLOYEE");
    for (const Tuple& row : *rel) {
      if (row.at(0) == Value::String(name)) return row.at(2);
    }
    return Value::Null();
  }

  Engine engine_;
};

TEST_F(ModifyGuardTest, ModifyInsideWindow) {
  auto out = engine_.Execute(
      "modify EMPLOYEE set SALARY = 23000 where EMPLOYEE.NAME = Smith "
      "as hr");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "modified 1 row(s)");
  EXPECT_EQ(SalaryOf("Smith"), Value::Int64(23000));
}

TEST_F(ModifyGuardTest, ModifyMayNotLeaveTheWindow) {
  // Raising Smith's salary to 40k would move the row outside JUNIOR.
  auto out = engine_.Execute(
      "modify EMPLOYEE set SALARY = 40000 where EMPLOYEE.NAME = Smith "
      "as hr");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "modified 0 row(s) (1 withheld by permissions)");
  EXPECT_EQ(SalaryOf("Smith"), Value::Int64(22000));
}

TEST_F(ModifyGuardTest, RowsOutsideWindowAreWithheld) {
  // Brown (32k) is outside JUNIOR: a broad raise touches only the
  // juniors.
  auto out = engine_.Execute(
      "modify EMPLOYEE set TITLE = associate where EMPLOYEE.SALARY > 0 "
      "as hr");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "modified 2 row(s) (1 withheld by permissions)");
}

TEST_F(ModifyGuardTest, NoModifyGrantDenied) {
  auto out = engine_.Execute(
      "modify EMPLOYEE set SALARY = 1 where EMPLOYEE.NAME = Smith "
      "as stranger");
  EXPECT_TRUE(out.status().IsPermissionDenied());
}

TEST_F(ModifyGuardTest, AdministrativeModify) {
  auto out = engine_.Execute(
      "modify EMPLOYEE set SALARY = 50000 where EMPLOYEE.NAME = Brown");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "modified 1 row(s)");
  EXPECT_EQ(SalaryOf("Brown"), Value::Int64(50000));
}

TEST_F(ModifyGuardTest, KeyConflictsRollBack) {
  auto out = engine_.Execute(
      "modify EMPLOYEE set NAME = Jones where EMPLOYEE.NAME = Smith "
      "as hr");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("key conflict"), std::string::npos);
  // Smith's row is intact.
  EXPECT_EQ(SalaryOf("Smith"), Value::Int64(22000));
}

// Administrative and guarded writes resolve their statement with one
// resolver; both reject a condition on another relation and an unknown
// attribute with the same errors, before touching a row.
TEST_F(ModifyGuardTest, WriteResolutionErrorsForAdminAndGuardedWrites) {
  ASSERT_TRUE(engine_
                  .ExecuteScript(R"(
      relation DEPT (DNAME string key)
      permit JUNIOR to hr for delete
    )")
                  .ok());
  struct Case {
    const char* statement;
    StatusCode code;
    const char* message;
  };
  const char* const kNoAge = "relation 'EMPLOYEE' has no attribute 'AGE'";
  const std::vector<Case> cases = {
      {"delete from EMPLOYEE where DEPT.DNAME = x",
       StatusCode::kInvalidArgument,
       "delete predicates may only reference the target relation"},
      {"delete from EMPLOYEE where EMPLOYEE.AGE > 1", StatusCode::kNotFound,
       kNoAge},
      {"modify EMPLOYEE set SALARY = 1 where DEPT.DNAME = x",
       StatusCode::kInvalidArgument,
       "modify predicates may only reference the target relation"},
      {"modify EMPLOYEE set SALARY = 1 where EMPLOYEE.AGE > 1",
       StatusCode::kNotFound, kNoAge},
      {"modify EMPLOYEE set AGE = 1", StatusCode::kNotFound, kNoAge},
  };
  for (const Case& c : cases) {
    for (const char* suffix : {"", " as hr"}) {
      const std::string statement = std::string(c.statement) + suffix;
      auto out = engine_.Execute(statement);
      ASSERT_FALSE(out.ok()) << statement;
      EXPECT_EQ(out.status().code(), c.code) << statement;
      EXPECT_EQ(out.status().message(), c.message) << statement;
    }
  }
  EXPECT_EQ((*engine_.db().GetRelation("EMPLOYEE"))->size(), 3);
  EXPECT_EQ(SalaryOf("Smith"), Value::Int64(22000));
}

TEST(UpdateGuardParsing, ModesRoundTrip) {
  auto permit = ParseStatement("permit V to U for insert");
  ASSERT_TRUE(permit.ok());
  EXPECT_EQ(std::get<PermitStmt>(*permit).mode, GrantMode::kInsert);
  EXPECT_EQ(std::get<PermitStmt>(*permit).ToString(),
            "permit V to U for insert");
  auto deny = ParseStatement("deny V to U for delete");
  ASSERT_TRUE(deny.ok());
  EXPECT_EQ(std::get<DenyStmt>(*deny).mode, GrantMode::kDelete);
  auto del = ParseStatement("delete from R where R.A = 1 as U");
  ASSERT_TRUE(del.ok());
  const auto& stmt = std::get<DeleteStmt>(*del);
  EXPECT_EQ(stmt.relation, "R");
  EXPECT_EQ(stmt.as_user, "U");
  EXPECT_EQ(stmt.ToString(), "delete from R where R.A = 1 as U");
  EXPECT_FALSE(ParseStatement("permit V to U for frobnicate").ok());
  EXPECT_FALSE(ParseStatement("delete R").ok());

  auto modify = ParseStatement(
      "modify R set A = 5, B = x where R.C > 1 as U");
  ASSERT_TRUE(modify.ok()) << modify.status();
  const auto& m = std::get<ModifyStmt>(*modify);
  EXPECT_EQ(m.assignments.size(), 2u);
  EXPECT_EQ(m.assignments[0].value, Value::Int64(5));
  EXPECT_EQ(m.ToString(), "modify R set A = 5, B = x where R.C > 1 as U");
  EXPECT_FALSE(ParseStatement("modify R where R.A = 1").ok());
  EXPECT_FALSE(ParseStatement("modify R set A > 5").ok());
}

}  // namespace
}  // namespace viewauth
