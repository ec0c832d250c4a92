// Integration tests reproducing the paper's Section 5 examples end to end.

#include <gtest/gtest.h>

#include <algorithm>

#include "authz/authorizer.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

// Example 1: Brown retrieves names and sponsors of large projects. The
// mask must be (*, Acme*) and the inferred permit restricted to Acme.
TEST(PaperExamples, Example1BrownLargeProjects) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000");

  auto result = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->denied);
  EXPECT_FALSE(result->full_access);

  // The raw answer holds bq-45/Acme and sv-72/Apex; only the Acme row is
  // delivered (the Apex row is fully masked and dropped).
  EXPECT_EQ(result->raw_answer.size(), 2);
  ASSERT_EQ(result->answer.size(), 1);
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("bq-45"), Value::String("Acme")})));

  // Mask: one tuple, both columns projected, SPONSOR = Acme.
  ASSERT_EQ(result->mask().size(), 1);
  const MetaTuple& mask = result->mask().tuples()[0];
  EXPECT_TRUE(mask.cells()[0].is_blank());
  EXPECT_TRUE(mask.cells()[0].projected);
  EXPECT_EQ(mask.cells()[1].kind, CellKind::kConst);
  EXPECT_EQ(mask.cells()[1].constant, Value::String("Acme"));
  EXPECT_TRUE(mask.cells()[1].projected);

  ASSERT_EQ(result->permits().size(), 1u);
  EXPECT_EQ(result->permits()[0].ToString(),
            "permit (NUMBER, SPONSOR) where SPONSOR = Acme");
}

// Example 2: Klein retrieves names and salaries of engineers on very
// large projects. Only NAME is permitted; SALARY is withheld.
TEST(PaperExamples, Example2KleinEngineerSalaries) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.TITLE = engineer "
      "and EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 300000");

  auto result = authorizer.Retrieve("Klein", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->denied);
  EXPECT_FALSE(result->full_access);

  // Brown (engineer, sv-72 at 450k) matches; salary must be masked.
  ASSERT_EQ(result->answer.size(), 1);
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Brown"), Value::Null()})));

  // Mask: NAME projected, SALARY not, no residual selection.
  ASSERT_EQ(result->mask().size(), 1);
  const MetaTuple& mask = result->mask().tuples()[0];
  EXPECT_TRUE(mask.cells()[0].is_blank());
  EXPECT_TRUE(mask.cells()[0].projected);
  EXPECT_TRUE(mask.cells()[1].is_blank());
  EXPECT_FALSE(mask.cells()[1].projected);
  EXPECT_EQ(mask.constraints().atom_count(), 0);

  ASSERT_EQ(result->permits().size(), 1u);
  EXPECT_EQ(result->permits()[0].ToString(), "permit (NAME)");
}

// Example 2's intermediate stage: after the product and the dangling
// pruning, exactly one combined view tuple remains (the full ELP tuple);
// the padded ELP-fragments and all EST combinations dangle.
TEST(PaperExamples, Example2ProductPruning) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.TITLE = engineer "
      "and EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 300000");

  MetaRelation product_stage;
  auto mask = authorizer.DeriveMask("Klein", query, AuthorizationOptions{},
                                    &product_stage);
  ASSERT_TRUE(mask.ok()) << mask.status().ToString();

  // Count tuples in the pruned product that involve all three ELP atoms.
  int full_elp = 0;
  for (const MetaTuple& tuple : product_stage.tuples()) {
    if (tuple.views().contains("ELP") && tuple.origin_atoms().size() >= 3) {
      ++full_elp;
    }
  }
  EXPECT_GE(full_elp, 1);
  // No tuple with a dangling variable survives.
  for (const MetaTuple& tuple : product_stage.tuples()) {
    EXPECT_FALSE(tuple.HasDanglingVariable());
  }
}

// Example 3: Brown retrieves names and salaries of same-title employee
// pairs. The SAE+EST self-join grants the entire answer.
TEST(PaperExamples, Example3BrownSameTitlePairs) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, "
      "EMPLOYEE:2.SALARY) "
      "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE");

  auto result = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->denied);
  EXPECT_TRUE(result->full_access);
  EXPECT_TRUE(result->permits().empty());

  // Every employee matches only itself (all titles unique): 3 rows, none
  // masked.
  EXPECT_EQ(result->answer.size(), 3);
  EXPECT_TRUE(result->answer.Materialize().SameTuples(
      result->raw_answer.Materialize()));
  EXPECT_TRUE(result->answer.Materialize().Contains(
      Tuple({Value::String("Jones"), Value::Int64(26000),
             Value::String("Jones"), Value::Int64(26000)})));
}

// Example 3 without self-joins: Brown gets names (EST) and each
// employee's salary only via... nothing — EST projects no salary and SAE
// has no pair constraint, so salaries are masked.
TEST(PaperExamples, Example3WithoutSelfJoins) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, "
      "EMPLOYEE:2.SALARY) "
      "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE");

  AuthorizationOptions options;
  options.self_joins = false;
  auto result = authorizer.Retrieve("Brown", query, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->full_access);
  // Names are deliverable through EST x EST; salaries are not.
  for (const Tuple& row : result->answer.Materialize()) {
    EXPECT_FALSE(row.at(0).is_null());
    EXPECT_TRUE(row.at(1).is_null());
    EXPECT_FALSE(row.at(2).is_null());
    EXPECT_TRUE(row.at(3).is_null());
  }
  EXPECT_EQ(result->answer.size(), 3);
}

// Klein's Example-1-style query is denied outright: PSA is not granted
// to Klein and ELP does not cover a PROJECT-only query.
TEST(PaperExamples, KleinDeniedOnProjectOnlyQuery) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000");

  auto result = authorizer.Retrieve("Klein", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->denied);
  EXPECT_EQ(result->answer.size(), 0);
}

// A query entirely within ELP: Klein lists names of employees on
// projects with budgets over 500k. The request is a view of ELP, so the
// whole (empty-but-authorized) structure flows through.
TEST(PaperExamples, KleinWithinElp) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 400000");

  auto result = authorizer.Retrieve("Klein", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->denied);
  // sv-72 (450k) employees: Jones and Brown — both delivered.
  EXPECT_EQ(result->answer.size(), 2);
  EXPECT_TRUE(result->full_access);
}

}  // namespace
}  // namespace viewauth
