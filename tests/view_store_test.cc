// Unit tests for view compilation and storage (paper Section 3 / Figure 1).

#include "meta/view_store.h"

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

// Convenience: cell rendering with the catalog's variable names.
std::string CellText(const ViewCatalog& catalog, const MetaCell& cell) {
  return cell.ToString([&catalog](VarId v) { return catalog.VarName(v); });
}

std::vector<std::string> TupleTexts(const ViewCatalog& catalog,
                                    const ViewDefinition& def,
                                    const std::string& relation) {
  std::vector<std::string> out;
  for (size_t i = 0; i < def.tuples.size(); ++i) {
    if (def.tuple_relations[i] != relation) continue;
    std::vector<std::string> cells;
    for (const MetaCell& cell : def.tuples[i].cells()) {
      cells.push_back(CellText(catalog, cell));
    }
    out.push_back(Join(cells, "|"));
  }
  return out;
}

// Figure 1, row by row: the compiled meta-tuples must match the paper.
TEST(ViewStore, Figure1MetaTuples) {
  PaperDatabase fixture;
  const ViewCatalog& catalog = fixture.catalog();

  auto sae = catalog.GetView("SAE");
  ASSERT_TRUE(sae.ok());
  EXPECT_EQ(TupleTexts(catalog, **sae, "EMPLOYEE"),
            (std::vector<std::string>{"*||*"}));

  auto elp = catalog.GetView("ELP");
  ASSERT_TRUE(elp.ok());
  EXPECT_EQ(TupleTexts(catalog, **elp, "EMPLOYEE"),
            (std::vector<std::string>{"x1*|*|"}));
  EXPECT_EQ(TupleTexts(catalog, **elp, "PROJECT"),
            (std::vector<std::string>{"x2*||x3*"}));
  EXPECT_EQ(TupleTexts(catalog, **elp, "ASSIGNMENT"),
            (std::vector<std::string>{"x1*|x2*"}));

  auto est = catalog.GetView("EST");
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(TupleTexts(catalog, **est, "EMPLOYEE"),
            (std::vector<std::string>{"*|x4*|", "*|x4*|"}));

  auto psa = catalog.GetView("PSA");
  ASSERT_TRUE(psa.ok());
  EXPECT_EQ(TupleTexts(catalog, **psa, "PROJECT"),
            (std::vector<std::string>{"*|Acme*|*"}));
}

TEST(ViewStore, Figure1Comparison) {
  PaperDatabase fixture;
  Relation comparison = fixture.catalog().MaterializeComparison();
  ASSERT_EQ(comparison.size(), 1);
  EXPECT_TRUE(comparison.Contains(
      Tuple({Value::String("ELP"), Value::String("x3"), Value::String(">="),
             Value::String("250000")})));
}

TEST(ViewStore, Figure1Permission) {
  PaperDatabase fixture;
  Relation permission = fixture.catalog().MaterializePermission();
  EXPECT_EQ(permission.size(), 5);
  EXPECT_TRUE(permission.Contains(
      Tuple({Value::String("Brown"), Value::String("SAE")})));
  EXPECT_TRUE(permission.Contains(
      Tuple({Value::String("Klein"), Value::String("ELP")})));
  EXPECT_FALSE(permission.Contains(
      Tuple({Value::String("Klein"), Value::String("SAE")})));
}

TEST(ViewStore, MaterializedMetaRelationScheme) {
  PaperDatabase fixture;
  auto employee_meta =
      fixture.catalog().MaterializeMetaRelation("EMPLOYEE");
  ASSERT_TRUE(employee_meta.ok());
  EXPECT_EQ(employee_meta->schema().name(), "EMPLOYEE'");
  EXPECT_EQ(employee_meta->schema().attribute(0).name, "VIEW");
  EXPECT_EQ(employee_meta->schema().arity(), 4);
  // SAE, ELP and one (collapsed) EST row.
  EXPECT_EQ(employee_meta->size(), 3);
  EXPECT_TRUE(
      fixture.catalog().MaterializeMetaRelation("NOPE").status().IsNotFound());
}

TEST(ViewStore, PermitAndDenySemantics) {
  PaperDatabase fixture;
  ViewCatalog& catalog = fixture.catalog();
  EXPECT_TRUE(catalog.IsPermitted("Brown", "SAE"));
  EXPECT_FALSE(catalog.IsPermitted("Brown", "ELP"));
  // Granting an unknown view fails; double grants are idempotent.
  EXPECT_TRUE(catalog.Permit("NOPE", "Brown").IsNotFound());
  EXPECT_TRUE(catalog.Permit("SAE", "Brown").ok());
  EXPECT_EQ(catalog.PermittedViews("Brown").size(), 3u);
  // Deny removes; denying twice fails.
  EXPECT_TRUE(catalog.Deny("SAE", "Brown").ok());
  EXPECT_FALSE(catalog.IsPermitted("Brown", "SAE"));
  EXPECT_TRUE(catalog.Deny("SAE", "Brown").IsNotFound());
  EXPECT_EQ(catalog.PermittedViews("Brown").size(), 2u);
}

TEST(ViewStore, DropViewPurgesGrants) {
  PaperDatabase fixture;
  ViewCatalog& catalog = fixture.catalog();
  EXPECT_TRUE(catalog.DropView("EST").ok());
  EXPECT_FALSE(catalog.HasView("EST"));
  EXPECT_FALSE(catalog.IsPermitted("Brown", "EST"));
  EXPECT_FALSE(catalog.IsPermitted("Klein", "EST"));
  EXPECT_TRUE(catalog.DropView("EST").IsNotFound());
}

TEST(ViewStore, DuplicateViewNameRejected) {
  PaperDatabase fixture;
  auto stmt = ParseStatement("view SAE (EMPLOYEE.NAME)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(fixture.catalog()
                  .DefineView(std::get<ViewStmt>(*stmt))
                  .IsAlreadyExists());
}

TEST(ViewStore, EmptyViewsRejected) {
  PaperDatabase fixture;
  const char* contradictions[] = {
      // Contradictory constants on one class.
      "view BAD1 (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme and "
      "PROJECT.SPONSOR = Apex",
      // Contradictory comparisons.
      "view BAD2 (PROJECT.NUMBER) where PROJECT.BUDGET > 500000 and "
      "PROJECT.BUDGET < 400000",
      // Constant violating a comparison after substitution.
      "view BAD3 (PROJECT.NUMBER) where PROJECT.BUDGET = 100 and "
      "PROJECT.BUDGET > 500000",
  };
  for (const char* text : contradictions) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    EXPECT_TRUE(fixture.catalog()
                    .DefineView(std::get<ViewStmt>(*stmt))
                    .IsInvalidArgument())
        << text;
  }
}

TEST(ViewStore, EqualitySubstitutionPinsWholeClass) {
  PaperDatabase fixture;
  // NAME = E_NAME = 'Jones': both cells become the constant.
  auto stmt = ParseStatement(
      "view VJ (EMPLOYEE.TITLE) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and EMPLOYEE.NAME = Jones");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(fixture.catalog().DefineView(std::get<ViewStmt>(*stmt)).ok());
  auto view = fixture.catalog().GetView("VJ");
  ASSERT_TRUE(view.ok());
  // EMPLOYEE tuple: (Jones, *, blank); ASSIGNMENT tuple: (Jones, blank).
  EXPECT_EQ(TupleTexts(fixture.catalog(), **view, "EMPLOYEE"),
            (std::vector<std::string>{"Jones|*|"}));
  EXPECT_EQ(TupleTexts(fixture.catalog(), **view, "ASSIGNMENT"),
            (std::vector<std::string>{"Jones|"}));
  // No comparison rows: the equality was substituted away.
  EXPECT_TRUE((**view).comparisons.empty());
}

TEST(ViewStore, ComparativeVariableKeptEvenWhenSingleOccurrence) {
  PaperDatabase fixture;
  // BUDGET occurs once but carries a comparison: it must be a variable,
  // not a blank (ELP's x3 pattern).
  auto elp = fixture.catalog().GetView("ELP");
  ASSERT_TRUE(elp.ok());
  const ViewDefinition& def = **elp;
  ASSERT_EQ(def.comparisons.size(), 1u);
  EXPECT_EQ(def.comparisons[0].op, Comparator::kGe);
  EXPECT_EQ(def.comparisons[0].rhs_const, Value::Int64(250000));
  EXPECT_EQ(def.vars.size(), 3u);
}

TEST(ViewStore, VariableNamesAreSequential) {
  PaperDatabase fixture;
  // SAE has no variables; ELP gets x1..x3; EST gets x4 — matching the
  // paper's numbering because views compile in that order.
  EXPECT_EQ(fixture.catalog().VarName(1), "x1");
  EXPECT_EQ(fixture.catalog().VarName(4), "x4");
  EXPECT_EQ(fixture.catalog().VarName(1000000), "w1");
}

TEST(ViewStore, ViewOverUnknownRelationRejected) {
  PaperDatabase fixture;
  auto stmt = ParseStatement("view V (NOPE.A)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(fixture.catalog()
                  .DefineView(std::get<ViewStmt>(*stmt))
                  .IsNotFound());
}

// A view named like a relation is one more view over that base relation:
// the journal scopes of grants on other views over it, and the reverse
// dependency query, still name the relation itself.
TEST(ViewStore, HomonymViewKeepsScopesOnBaseRelations) {
  PaperDatabase fixture;
  ViewCatalog& catalog = fixture.catalog();
  auto stmt = ParseStatement("view EMPLOYEE (EMPLOYEE.NAME)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(catalog.DefineView(std::get<ViewStmt>(*stmt)).ok());

  const long long before = catalog.catalog_version();
  ASSERT_TRUE(catalog.Deny("SAE", "Brown").ok());
  ASSERT_TRUE(catalog.Permit("ELP", "Brown").ok());
  std::vector<CatalogMutation> records;
  ASSERT_TRUE(catalog.MutationsSince(before, &records));
  ASSERT_EQ(records.size(), 2u);
  const std::set<std::string> employee{"EMPLOYEE"};
  EXPECT_EQ(records[0].scopes, std::vector<std::set<std::string>>{employee});
  const std::set<std::string> elp{"ASSIGNMENT", "EMPLOYEE", "PROJECT"};
  EXPECT_EQ(records[1].scopes, std::vector<std::set<std::string>>{elp});

  EXPECT_EQ(catalog.ViewsReferencingRelation("EMPLOYEE"),
            (std::vector<std::string>{"SAE", "ELP", "EST", "EMPLOYEE"}));
}

// The journal keeps the newest 4,096 records. A reader exactly that far
// behind still gets every record, oldest first; one record further and
// MutationsSince reports the loss instead of a partial answer.
TEST(ViewStore, MutationsSinceReportsTruncationPastTheJournalCapacity) {
  PaperDatabase fixture;
  ViewCatalog& catalog = fixture.catalog();
  constexpr long long kCapacity = 4096;
  const long long since = catalog.catalog_version();
  for (long long i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE((i % 2 == 0 ? catalog.AddMember("Klein", "staff")
                            : catalog.RemoveMember("Klein", "staff"))
                    .ok());
  }
  std::vector<CatalogMutation> records;
  ASSERT_TRUE(catalog.MutationsSince(since, &records));
  ASSERT_EQ(static_cast<long long>(records.size()), kCapacity);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, since + 1 + static_cast<long long>(i));
  }
  records.clear();
  ASSERT_TRUE(catalog.MutationsSince(catalog.catalog_version() - 2, &records));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, catalog.catalog_version() - 1);
  EXPECT_EQ(records[1].seq, catalog.catalog_version());

  ASSERT_TRUE(catalog.AddMember("Klein", "staff").ok());
  records.clear();
  EXPECT_FALSE(catalog.MutationsSince(since, &records));
  EXPECT_TRUE(records.empty());
  ASSERT_TRUE(catalog.MutationsSince(since + 1, &records));
  EXPECT_EQ(static_cast<long long>(records.size()), kCapacity);
}

}  // namespace
}  // namespace viewauth
