// Tests for the audit log: every user-attributed decision is recorded
// with its outcome, counts, and inferred permits.

#include "authz/audit_log.h"

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace viewauth {
namespace {

class AuditLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = engine_.ExecuteScript(R"(
      relation PROJECT (NUMBER string key, SPONSOR string, BUDGET int)
      insert into PROJECT values (p1, Acme, 100000)
      insert into PROJECT values (p2, Apex, 400000)
      view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
        where PROJECT.SPONSOR = Acme
      permit PSA to Brown
      permit PSA to editor for insert
      permit PSA to editor for delete
    )");
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Engine engine_;
};

TEST_F(AuditLogTest, RetrieveOutcomesRecorded) {
  ASSERT_TRUE(
      engine_.Execute("retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
                      "as Brown")
          .ok());
  ASSERT_TRUE(engine_.Execute("retrieve (PROJECT.NUMBER) as Nobody").ok());
  ASSERT_TRUE(engine_
                  .Execute("retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, "
                           "PROJECT.BUDGET) where PROJECT.SPONSOR = Acme "
                           "as Brown")
                  .ok());

  const AuditLog& log = engine_.audit_log();
  ASSERT_EQ(log.size(), 3);
  EXPECT_EQ(log.entries()[0].outcome, AuditOutcome::kPartial);
  EXPECT_EQ(log.entries()[0].user, "Brown");
  EXPECT_EQ(log.entries()[0].affected, 1);
  EXPECT_EQ(log.entries()[0].withheld, 1);  // the Apex row
  EXPECT_NE(log.entries()[0].permits().find("SPONSOR = Acme"),
            std::string::npos);
  EXPECT_EQ(log.entries()[1].outcome, AuditOutcome::kDenied);
  EXPECT_EQ(log.entries()[2].outcome, AuditOutcome::kFullAccess);
  // Sequence numbers are monotonic from 1.
  EXPECT_EQ(log.entries()[0].sequence, 1);
  EXPECT_EQ(log.entries()[2].sequence, 3);
}

TEST_F(AuditLogTest, UpdateOutcomesRecorded) {
  ASSERT_TRUE(engine_
                  .Execute("insert into PROJECT values (p3, Acme, 5) "
                           "as editor")
                  .ok());
  EXPECT_FALSE(engine_
                   .Execute("insert into PROJECT values (p4, Apex, 5) "
                            "as editor")
                   .ok());
  ASSERT_TRUE(engine_
                  .Execute("delete from PROJECT where PROJECT.BUDGET < "
                           "500000 as editor")
                  .ok());

  const AuditLog& log = engine_.audit_log();
  ASSERT_EQ(log.size(), 3);
  EXPECT_EQ(log.entries()[0].outcome, AuditOutcome::kInsertAllowed);
  EXPECT_EQ(log.entries()[1].outcome, AuditOutcome::kInsertDenied);
  EXPECT_EQ(log.entries()[2].outcome, AuditOutcome::kDeleteApplied);
  EXPECT_EQ(log.entries()[2].affected, 2);  // p1 and p3 (Acme rows)
  EXPECT_EQ(log.entries()[2].withheld, 1);  // p2 (Apex)
}

TEST_F(AuditLogTest, AdministrativeStatementsAreNotAudited) {
  ASSERT_TRUE(engine_.Execute("insert into PROJECT values (p9, Zeus, 1)")
                  .ok());
  ASSERT_TRUE(engine_.Execute("delete from PROJECT where "
                              "PROJECT.SPONSOR = Zeus")
                  .ok());
  EXPECT_EQ(engine_.audit_log().size(), 0);
}

TEST_F(AuditLogTest, MaterializeAndRender) {
  ASSERT_TRUE(engine_.Execute("retrieve (PROJECT.NUMBER) as Nobody").ok());
  Relation rel = engine_.audit_log().Materialize();
  EXPECT_EQ(rel.schema().name(), "AUDIT");
  EXPECT_EQ(rel.size(), 1);
  EXPECT_EQ(rel.row(0).at(3), Value::String("denied"));

  std::string text = engine_.audit_log().ToString();
  EXPECT_NE(text.find("[Nobody] denied"), std::string::npos);
  // last_n trims from the front.
  ASSERT_TRUE(engine_.Execute("retrieve (PROJECT.NUMBER) as Brown").ok());
  std::string last = engine_.audit_log().ToString(1);
  EXPECT_EQ(last.find("Nobody"), std::string::npos);
  EXPECT_NE(last.find("Brown"), std::string::npos);
}

}  // namespace
}  // namespace viewauth
