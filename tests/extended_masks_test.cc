// Tests for the extended-mask delivery (paper conclusion (3)): masks
// "expressed with additional attributes".

#include <gtest/gtest.h>

#include "authz/authorizer.h"
#include "engine/engine.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

AuthorizationOptions Extended() {
  AuthorizationOptions options;
  options.extended_masks = true;
  return options;
}

// Brown asks for project numbers only. PSA restricts SPONSOR, which is
// not requested: the base algorithm must deny (the mask cannot be
// expressed with the requested attributes), the extension delivers the
// Acme numbers with a permit statement naming SPONSOR.
TEST(ExtendedMasks, RestrictionOnNonRequestedAttribute) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query("retrieve (PROJECT.NUMBER)");

  auto base = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base->denied);

  auto extended = authorizer.Retrieve("Brown", query, Extended());
  ASSERT_TRUE(extended.ok());
  EXPECT_FALSE(extended->denied);
  ASSERT_EQ(extended->answer.size(), 1);
  EXPECT_TRUE(extended->answer.Materialize().Contains(
      Tuple({Value::String("bq-45")})));
  ASSERT_EQ(extended->permits().size(), 1u);
  EXPECT_EQ(extended->permits()[0].ToString(),
            "permit (NUMBER) where SPONSOR = Acme");
}

// The hospital scenario: the view restricts WARD (not projected); a
// query silent about the ward is denied by the base algorithm but
// delivered (ward-filtered) by the extension.
TEST(ExtendedMasks, ViewPredicateBecomesRowFilter) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation PATIENT (ID int key, NAME string, WARD string, AGE int)
    relation RECORD (PATIENT_ID int key, DIAGNOSIS string)
    insert into PATIENT values (1, Adams, cardiology, 71)
    insert into PATIENT values (2, Baker, oncology, 58)
    insert into RECORD values (1, arrhythmia)
    insert into RECORD values (2, lymphoma)
    view CARDIO (PATIENT.ID, PATIENT.NAME, RECORD.DIAGNOSIS)
      where PATIENT.ID = RECORD.PATIENT_ID
      and PATIENT.WARD = cardiology
    permit CARDIO to assistant
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();

  const char* query =
      "retrieve (PATIENT.NAME, RECORD.DIAGNOSIS) "
      "where PATIENT.ID = RECORD.PATIENT_ID as assistant";

  auto base = engine.Retrieve(query);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base->denied);

  engine.options().extended_masks = true;
  auto extended = engine.Retrieve(query);
  ASSERT_TRUE(extended.ok());
  const AuthorizationResult* result = &*extended;
  EXPECT_FALSE(result->denied);
  ASSERT_EQ(result->answer.size(), 1);
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Adams"), Value::String("arrhythmia")})));
  ASSERT_EQ(result->permits().size(), 1u);
  EXPECT_EQ(result->permits()[0].ToString(),
            "permit (NAME, DIAGNOSIS) where PATIENT.WARD = cardiology");
}

// Queries fully inside a permitted view behave identically in both
// modes: full access, no permit statements.
TEST(ExtendedMasks, FullAccessUnchanged) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET) "
      "where PROJECT.SPONSOR = Acme");
  auto extended = authorizer.Retrieve("Brown", query, Extended());
  ASSERT_TRUE(extended.ok());
  EXPECT_FALSE(extended->denied);
  EXPECT_TRUE(extended->full_access);
  EXPECT_TRUE(extended->permits().empty());
  EXPECT_EQ(extended->answer.size(), 1);
}

// The paper's Examples 1 and 2 deliver identical results under the
// extension (their masks never need extra attributes).
TEST(ExtendedMasks, PaperExamplesUnchanged) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();

  ConjunctiveQuery example1 = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000");
  auto base1 = authorizer.Retrieve("Brown", example1);
  auto ext1 = authorizer.Retrieve("Brown", example1, Extended());
  ASSERT_TRUE(base1.ok());
  ASSERT_TRUE(ext1.ok());
  EXPECT_TRUE(
      base1->answer.Materialize().SameTuples(ext1->answer.Materialize()));

  ConjunctiveQuery example2 = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.TITLE = engineer "
      "and EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 300000");
  auto base2 = authorizer.Retrieve("Klein", example2);
  auto ext2 = authorizer.Retrieve("Klein", example2, Extended());
  ASSERT_TRUE(base2.ok());
  ASSERT_TRUE(ext2.ok());
  EXPECT_TRUE(
      base2->answer.Materialize().SameTuples(ext2->answer.Materialize()));
}

// Denials remain denials when no view covers the request at all.
TEST(ExtendedMasks, StillDeniedWithoutCoverage) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query("retrieve (PROJECT.NUMBER)");
  auto result = authorizer.Retrieve("Klein", query, Extended());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->denied);
}

// The extension never delivers fewer cells than the base algorithm.
TEST(ExtendedMasks, ExtensionIsMonotone) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  const char* queries[] = {
      "retrieve (PROJECT.NUMBER)",
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)",
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET >= 250000",
  };
  auto delivered_cells = [](const ColumnAnswer& answer) {
    long long count = 0;
    for (size_t r = 0; r < static_cast<size_t>(answer.size()); ++r) {
      for (size_t c = 0; c < static_cast<size_t>(answer.arity()); ++c) {
        if (!answer.cell(r, c).is_null()) ++count;
      }
    }
    return count;
  };
  for (const char* text : queries) {
    for (const char* user : {"Brown", "Klein"}) {
      ConjunctiveQuery query = fixture.Query(text);
      auto base = authorizer.Retrieve(user, query);
      auto extended = authorizer.Retrieve(user, query, Extended());
      ASSERT_TRUE(base.ok()) << text;
      ASSERT_TRUE(extended.ok()) << text;
      EXPECT_GE(delivered_cells(extended->answer),
                delivered_cells(base->answer))
          << user << ": " << text;
    }
  }
}

// On the vectorized plan the extended flow masks S's row ids and
// gathers the delivered cells into column images: no Tuple is built
// between S and the answer, under partial or full access.
TEST(ExtendedMasks, VectorizedPlanBuildsNoTuples) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery partial_query = fixture.Query("retrieve (PROJECT.NUMBER)");
  auto partial = authorizer.Retrieve("Brown", partial_query, Extended());
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_FALSE(partial->denied);
  ASSERT_FALSE(partial->full_access);
  EXPECT_EQ(partial->answer.size(), 1);
  EXPECT_EQ(partial->data_stats.tuples_materialized, 0);

  ConjunctiveQuery full_query = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET) "
      "where PROJECT.SPONSOR = Acme");
  auto full = authorizer.Retrieve("Brown", full_query, Extended());
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->full_access);
  EXPECT_EQ(full->answer.size(), 1);
  EXPECT_EQ(full->data_stats.tuples_materialized, 0);
}

// A keyless relation whose requested projection repeats: the extended
// flow's raw answer keeps one row per distinct projection of the wide
// rows, as the canonical plan's projection does.
TEST(ExtendedMasks, RawAnswerOfARepeatingProjectionMatchesCanonical) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation STAFF (NAME string, TITLE string)
    insert into STAFF values (Adams, clerk)
    insert into STAFF values (Baker, clerk)
    insert into STAFF values (Clark, manager)
    view ADAMS (STAFF.TITLE) where STAFF.NAME = Adams
    permit ADAMS to u
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto stmt = ParseStatement("retrieve (STAFF.TITLE)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto query = ConjunctiveQuery::FromRetrieve(
      engine.db().schema(), std::get<RetrieveStmt>(*stmt));
  ASSERT_TRUE(query.ok()) << query.status();
  const Authorizer authorizer(&engine.db(), &engine.catalog());

  AuthorizationOptions canonical_options = Extended();
  canonical_options.use_optimized_data_plan = false;
  auto canonical = authorizer.Retrieve("u", *query, canonical_options);
  auto vectorized = authorizer.Retrieve("u", *query, Extended());
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  ASSERT_TRUE(vectorized.ok()) << vectorized.status();
  ASSERT_EQ(canonical->raw_answer.size(), 2);
  EXPECT_EQ(vectorized->raw_answer.size(), canonical->raw_answer.size());
  EXPECT_EQ(vectorized->raw_answer.Materialize().SortedRows(),
            canonical->raw_answer.Materialize().SortedRows());
  // Only Adams's row passes the mask: the clerk title is delivered once.
  ASSERT_EQ(vectorized->answer.size(), 1);
  EXPECT_TRUE(vectorized->answer.Materialize().Contains(
      Tuple({Value::String("clerk")})));
}

}  // namespace
}  // namespace viewauth
