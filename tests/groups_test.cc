// Tests for group membership: grants to groups apply to their members.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace viewauth {
namespace {

class GroupsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation EMPLOYEE (NAME string key, SALARY int)
      insert into EMPLOYEE values (Jones, 26000)
      view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)
      permit SAE to hr_team
      member alice of hr_team
      member bob of hr_team
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  bool Denied(const char* query) {
    auto out = engine_.Retrieve(query);
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() && out->denied;
  }

  Engine engine_;
};

TEST_F(GroupsTest, Parsing) {
  auto add = ParseStatement("member u of g");
  ASSERT_TRUE(add.ok());
  EXPECT_FALSE(std::get<MemberStmt>(*add).remove);
  EXPECT_EQ(std::get<MemberStmt>(*add).ToString(), "member u of g");
  auto remove = ParseStatement("unmember u of g");
  ASSERT_TRUE(remove.ok());
  EXPECT_TRUE(std::get<MemberStmt>(*remove).remove);
  EXPECT_FALSE(ParseStatement("member u g").ok());
}

TEST_F(GroupsTest, MembersInheritGroupGrants) {
  EXPECT_FALSE(Denied("retrieve (EMPLOYEE.NAME) as alice"));
  EXPECT_FALSE(Denied("retrieve (EMPLOYEE.NAME) as bob"));
  EXPECT_TRUE(Denied("retrieve (EMPLOYEE.NAME) as carol"));
  EXPECT_TRUE(engine_.catalog().IsPermitted("alice", "SAE"));
  EXPECT_TRUE(engine_.catalog().IsMember("alice", "hr_team"));
  EXPECT_FALSE(engine_.catalog().IsMember("carol", "hr_team"));
}

TEST_F(GroupsTest, UnmemberRevokesInheritedAccess) {
  ASSERT_TRUE(engine_.Execute("unmember alice of hr_team").ok());
  EXPECT_TRUE(Denied("retrieve (EMPLOYEE.NAME) as alice"));
  EXPECT_FALSE(Denied("retrieve (EMPLOYEE.NAME) as bob"));
  EXPECT_TRUE(
      engine_.Execute("unmember alice of hr_team").status().IsNotFound());
}

TEST_F(GroupsTest, DirectAndGroupGrantsDoNotDuplicateViews) {
  ASSERT_TRUE(engine_.Execute("permit SAE to alice").ok());
  // One view despite two applicable grants.
  EXPECT_EQ(engine_.catalog().PermittedViews("alice").size(), 1u);
  EXPECT_FALSE(Denied("retrieve (EMPLOYEE.NAME) as alice"));
}

TEST_F(GroupsTest, GroupCannotContainItself) {
  EXPECT_TRUE(
      engine_.Execute("member g of g").status().IsInvalidArgument());
}

TEST_F(GroupsTest, MembershipSurvivesDumpReplay) {
  auto dump = engine_.DumpScript();
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("member alice of hr_team"), std::string::npos);
  Engine restored;
  ASSERT_TRUE(restored.ExecuteScript(*dump).ok()) << *dump;
  auto out = restored.Retrieve("retrieve (EMPLOYEE.NAME) as alice");
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->denied);
}

TEST_F(GroupsTest, UpdateModesWorkThroughGroups) {
  ASSERT_TRUE(engine_.Execute("permit SAE to hr_team for insert").ok());
  EXPECT_TRUE(engine_
                  .Execute("insert into EMPLOYEE values (Nora, 1000) "
                           "as alice")
                  .ok());
  EXPECT_TRUE(engine_
                  .Execute("insert into EMPLOYEE values (Zed, 1) as carol")
                  .status()
                  .IsPermissionDenied());
}

}  // namespace
}  // namespace viewauth
