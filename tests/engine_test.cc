// Integration tests for the Section 6 front-end: statements in, masked
// relations and inferred permit statements out.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace viewauth {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
      insert into EMPLOYEE values (Jones, manager, 26000)
      insert into EMPLOYEE values (Brown, engineer, 32000)
      view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)
      permit SAE to Brown
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Engine engine_;
};

TEST_F(EngineTest, DdlConfirmations) {
  auto out = engine_.Execute("relation T (A int)");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "created relation T");
  EXPECT_TRUE(engine_.Execute("relation T (A int)")
                  .status()
                  .IsAlreadyExists());
}

TEST_F(EngineTest, InsertCoercesBarewordNumbers) {
  // Values arrive as identifiers/strings; numeric columns coerce.
  ASSERT_TRUE(engine_.Execute("relation T (A int, B double)").ok());
  EXPECT_TRUE(engine_.Execute("insert into T values (5, 2)").ok());
  EXPECT_TRUE(
      engine_.Execute("insert into T values (x, 2)").status()
          .IsInvalidArgument());
  EXPECT_TRUE(engine_.Execute("insert into T values (5)")
                  .status()
                  .IsSchemaMismatch());
}

TEST_F(EngineTest, RetrieveMasksAndDescribes) {
  const char* query = "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) as Brown";
  auto out = engine_.Execute(query);
  ASSERT_TRUE(out.ok());
  // Names flow, titles are withheld.
  EXPECT_NE(out->find("Jones"), std::string::npos);
  EXPECT_EQ(out->find("manager"), std::string::npos);
  EXPECT_NE(out->find("permit (NAME)"), std::string::npos);
  auto result = engine_.Retrieve(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->full_access);
  EXPECT_EQ(result->answer.size(), 2);
  // The engine hands out no unmasked rows, titles included.
  EXPECT_EQ(result->raw_answer.size(), 0);
}

TEST_F(EngineTest, RetrieveFullAccessHasNoPermits) {
  const char* query = "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Brown";
  auto out = engine_.Execute(query);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->find("permit"), std::string::npos);
  auto result = engine_.Retrieve(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->full_access);
}

TEST_F(EngineTest, RetrieveDenied) {
  const char* query = "retrieve (EMPLOYEE.NAME) as Nobody";
  auto out = engine_.Execute(query);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("permission denied"), std::string::npos);
  auto result = engine_.Retrieve(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->denied);
  EXPECT_EQ(result->raw_answer.size(), 0);
}

TEST_F(EngineTest, RetrieveRejectsOtherStatements) {
  EXPECT_TRUE(engine_.Retrieve("insert into EMPLOYEE values (Kim, clerk, 1)")
                  .status()
                  .IsInvalidArgument());
  EXPECT_FALSE(engine_.Retrieve("retrieve (").ok());
  // Neither reached the engine: no row was loaded, nothing was audited.
  EXPECT_EQ(engine_.audit_log().size(), 0);
}

TEST_F(EngineTest, SessionUserAndAsClause) {
  engine_.SetSessionUser("Brown");
  auto out = engine_.Execute("retrieve (EMPLOYEE.SALARY)");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("26,000"), std::string::npos);
  // The `as` clause overrides the session user.
  auto denied = engine_.Execute("retrieve (EMPLOYEE.SALARY) as Nobody");
  ASSERT_TRUE(denied.ok());
  EXPECT_NE(denied->find("permission denied"), std::string::npos);
}

TEST_F(EngineTest, DenyStatementRemovesAccess) {
  ASSERT_TRUE(engine_.Execute("deny SAE to Brown").ok());
  auto out = engine_.Execute("retrieve (EMPLOYEE.NAME) as Brown");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("permission denied"), std::string::npos);
  EXPECT_TRUE(
      engine_.Execute("deny SAE to Brown").status().IsNotFound());
}

TEST_F(EngineTest, ScriptErrorsPropagate) {
  auto out = engine_.ExecuteScript("permit NOPE to U");
  EXPECT_TRUE(out.status().IsNotFound());
  EXPECT_TRUE(engine_.ExecuteScript("gibberish").status()
                  .IsInvalidArgument());
}

TEST_F(EngineTest, OptionsArePluggable) {
  engine_.options().drop_fully_masked_rows = false;
  auto out = engine_.Execute(
      "retrieve (EMPLOYEE.TITLE) as Brown");  // nothing permitted
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("permission denied"), std::string::npos);
}

// A string constant spelled like a local variable name ("v0") once keyed
// exactly like the variable in the final, provenance-free duplicate
// elimination, so whichever of the two masks came first swallowed the
// other: V1's A = B subview, and with it the (w, w) row, disappeared when
// V2 was permitted first.
TEST(EngineKeyRegression, ConstantNamedLikeAVariableKeepsBothViews) {
  for (bool constant_view_first : {true, false}) {
    SCOPED_TRACE(constant_view_first ? "V2 first" : "V1 first");
    Engine engine;
    auto setup = engine.ExecuteScript(R"(
      relation R (A string, B string)
      insert into R values (w, w)
      insert into R values (v0, v0)
      insert into R values (a, b)
      view V2 (R.A, R.B) where R.A = v0 and R.B = v0
      view V1 (R.A, R.B) where R.A = R.B
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
    const char* grants[] = {"permit V2 to u", "permit V1 to u"};
    if (!constant_view_first) std::swap(grants[0], grants[1]);
    for (const char* grant : grants) {
      ASSERT_TRUE(engine.Execute(grant).ok()) << grant;
    }

    auto result = engine.Retrieve("retrieve (R.A, R.B) as u");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->denied);
    EXPECT_EQ(result->answer.size(), 2);
    EXPECT_TRUE(result->answer.Materialize().Contains(
        Tuple({Value::String("w"), Value::String("w")})));
    EXPECT_TRUE(result->answer.Materialize().Contains(
        Tuple({Value::String("v0"), Value::String("v0")})));
    std::string permits;
    for (const InferredPermit& permit : result->permits()) {
      permits += permit.ToString() + "\n";
    }
    EXPECT_NE(permits.find("permit (A, B) where A = B\n"), std::string::npos)
        << permits;
  }
}

}  // namespace
}  // namespace viewauth
