// EXP-C2: the introduction's INGRES comparison. Two limitations of query
// modification are reproduced and contrasted with the paper's model:
//   (a) permissions attach to single relations — multi-relation permitted
//       views are inexpressible, so join queries are rejected;
//   (b) rows and columns are asymmetric — a query addressing one
//       attribute beyond the permitted column set is rejected outright
//       instead of being column-reduced.

#include <iostream>

#include "baselines/ingres/query_modification.h"
#include "bench/exp_util.h"
#include "engine/table_printer.h"
#include "parser/parser.h"

using namespace viewauth;
using testing_util::PaperDatabase;

namespace {

RetrieveStmt Retrieve(const char* text) {
  auto stmt = ParseStatement(text);
  VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
  return std::get<RetrieveStmt>(*stmt);
}

}  // namespace

int main() {
  exp::Checker checker("EXP-C2: INGRES query modification asymmetries");
  PaperDatabase fixture;

  // INGRES side: Ann may see NAME and TITLE of employees with salaries
  // under 30k (a single-relation permission, the most INGRES can say).
  ingres::IngresAuthorizer ing(&fixture.db().schema());
  {
    ingres::Permission p;
    p.user = "Ann";
    p.relation = "EMPLOYEE";
    p.columns = {"NAME", "TITLE"};
    Condition c;
    c.lhs = AttributeRef{"EMPLOYEE", 1, "SALARY"};
    c.op = Comparator::kLt;
    c.rhs = ConditionOperand::Const(Value::Int64(30000));
    p.qualification.push_back(c);
    if (!ing.AddPermission(std::move(p)).ok()) return 1;
  }

  // (b) Row/column asymmetry. Within the columns: modified gracefully.
  RetrieveStmt within = Retrieve("retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)");
  auto within_result =
      ing.Retrieve("Ann", within.targets, within.conditions, fixture.db());
  checker.Check("INGRES reduces rows for (NAME, TITLE)",
                within_result.ok() && within_result->size() == 2);
  if (within_result.ok()) {
    std::cout << "[INGRES] (NAME, TITLE):\n"
              << PrintRelation(*within_result) << "\n";
  }
  // One extra column: the whole query dies.
  RetrieveStmt beyond =
      Retrieve("retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)");
  auto beyond_result =
      ing.Retrieve("Ann", beyond.targets, beyond.conditions, fixture.db());
  std::cout << "[INGRES] (NAME, TITLE, SALARY): "
            << beyond_result.status() << "\n";
  checker.Check("INGRES rejects (NAME, TITLE, SALARY) outright",
                beyond_result.status().IsPermissionDenied());

  // The paper expects a model to reduce that request to (NAME, TITLE);
  // the Motro side does exactly that with the equivalent permitted view
  // (NAME and TITLE exposed; SALARY only a selection attribute).
  ViewCatalog catalog(&fixture.db().schema());
  {
    auto narrow = ParseStatement(
        "view CHEAP (EMPLOYEE.NAME, EMPLOYEE.TITLE) "
        "where EMPLOYEE.SALARY < 30000");
    if (!narrow.ok()) return 1;
    if (!catalog.DefineView(std::get<ViewStmt>(*narrow)).ok()) return 1;
    if (!catalog.Permit("CHEAP", "Ann").ok()) return 1;
  }
  Authorizer motro(&fixture.db(), &catalog);
  // The same bare request INGRES rejected: the mask keeps the view's
  // salary restriction as a row filter and withholds the salary column.
  ConjunctiveQuery wide = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)");
  auto reduced = motro.Retrieve("Ann", wide);
  if (!reduced.ok()) {
    std::cerr << reduced.status() << "\n";
    return 1;
  }
  std::cout << "[Motro] (NAME, TITLE, SALARY):\n"
            << PrintRelation(reduced->answer) << "\n";
  bool salary_masked = !reduced->denied && reduced->answer.size() == 2;
  for (const Tuple& row : reduced->answer.Materialize()) {
    if (!row.at(2).is_null()) salary_masked = false;
  }
  checker.Check("Motro reduces it to (NAME, TITLE) with SALARY masked",
                salary_masked);

  // (a) Multi-relation permissions. INGRES cannot express ELP at all;
  // the same grant in the Motro model authorizes the join query fully
  // (EXP-C1 covers the Motro side; here the INGRES rejection).
  RetrieveStmt join = Retrieve(
      "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER");
  auto join_result =
      ing.Retrieve("Ann", join.targets, join.conditions, fixture.db());
  std::cout << "[INGRES] join query: " << join_result.status() << "\n";
  checker.Check("INGRES rejects multi-relation requests",
                join_result.status().IsPermissionDenied());
  return checker.Finish();
}
