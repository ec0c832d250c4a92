// Tests for drop statements and the restrict semantics protecting stored
// views.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace viewauth {
namespace {

class DropTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation T (A int key, B int)
      relation U (C int key)
      insert into T values (1, 2)
      view VT (T.A, T.B) where T.B > 0
      permit VT to u
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Engine engine_;
};

TEST_F(DropTest, Parsing) {
  auto rel = ParseStatement("drop relation T");
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(std::get<DropStmt>(*rel).is_view);
  EXPECT_EQ(std::get<DropStmt>(*rel).ToString(), "drop relation T");
  auto view = ParseStatement("drop view V");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(std::get<DropStmt>(*view).is_view);
  EXPECT_FALSE(ParseStatement("drop table T").ok());
  EXPECT_FALSE(ParseStatement("drop").ok());
}

TEST_F(DropTest, DropViewRemovesGrants) {
  auto out = engine_.Execute("drop view VT");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "dropped view VT");
  EXPECT_FALSE(engine_.catalog().HasView("VT"));
  auto denied = engine_.Retrieve("retrieve (T.A) as u");
  ASSERT_TRUE(denied.ok());
  EXPECT_TRUE(denied->denied);
  EXPECT_TRUE(engine_.Execute("drop view VT").status().IsNotFound());
}

TEST_F(DropTest, DropRelationRestrictedByViews) {
  auto blocked = engine_.Execute("drop relation T");
  ASSERT_TRUE(blocked.status().IsInvalidArgument());
  EXPECT_NE(blocked.status().message().find("VT"), std::string::npos);
  EXPECT_TRUE(engine_.db().HasRelation("T"));

  // Unreferenced relations drop fine.
  ASSERT_TRUE(engine_.Execute("drop relation U").ok());
  EXPECT_FALSE(engine_.db().HasRelation("U"));

  // After dropping the view, the relation can go too.
  ASSERT_TRUE(engine_.Execute("drop view VT").ok());
  ASSERT_TRUE(engine_.Execute("drop relation T").ok());
  EXPECT_FALSE(engine_.db().HasRelation("T"));
}

// A view named like its relation is a view over that base relation:
// dropping another view over the relation must still take its grant
// away, and the relation stays protected by both views.
TEST_F(DropTest, DropViewBesideAHomonymViewRemovesGrants) {
  ASSERT_TRUE(engine_
                  .ExecuteScript(R"(
                    relation EMP (NAME string key, SALARY int)
                    insert into EMP values (Jones, 26000)
                    view EMP (EMP.NAME)
                    view X (EMP.NAME, EMP.SALARY)
                    permit X to u
                  )")
                  .ok());
  auto granted = engine_.Retrieve("retrieve (EMP.NAME, EMP.SALARY) as u");
  ASSERT_TRUE(granted.ok()) << granted.status();
  EXPECT_TRUE(granted->full_access);

  ASSERT_TRUE(engine_.Execute("drop view X").ok());
  auto denied = engine_.Retrieve("retrieve (EMP.NAME, EMP.SALARY) as u");
  ASSERT_TRUE(denied.ok()) << denied.status();
  EXPECT_TRUE(denied->denied);
}

TEST_F(DropTest, DropRelationRestrictedByAHomonymView) {
  ASSERT_TRUE(engine_
                  .ExecuteScript(R"(
                    relation EMP (NAME string key, SALARY int)
                    view EMP (EMP.NAME)
                    view X (EMP.NAME, EMP.SALARY)
                  )")
                  .ok());
  auto blocked = engine_.Execute("drop relation EMP");
  ASSERT_TRUE(blocked.status().IsInvalidArgument()) << blocked.status();
  EXPECT_NE(blocked.status().message().find("view 'EMP'"),
            std::string::npos);

  ASSERT_TRUE(engine_.Execute("drop view X").ok());
  blocked = engine_.Execute("drop relation EMP");
  ASSERT_TRUE(blocked.status().IsInvalidArgument()) << blocked.status();
  EXPECT_TRUE(engine_.db().HasRelation("EMP"));

  ASSERT_TRUE(engine_.Execute("drop view EMP").ok());
  ASSERT_TRUE(engine_.Execute("drop relation EMP").ok());
  EXPECT_FALSE(engine_.db().HasRelation("EMP"));
}

TEST_F(DropTest, CompiledViewsSurviveSchemaChurn) {
  // Stored views capture their schemas by value: dropping and recreating
  // an *unrelated* relation must not disturb an existing view's
  // compiled form.
  ASSERT_TRUE(engine_.Execute("drop relation U").ok());
  ASSERT_TRUE(engine_.Execute("relation U (C int key, D int)").ok());
  auto out = engine_.Retrieve("retrieve (T.A, T.B) as u");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(out->denied);
  EXPECT_EQ(out->answer.size(), 1);
}

}  // namespace
}  // namespace viewauth
