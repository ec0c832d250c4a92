// EXP-C1: the introduction's System R comparison. A view V over
// relations A and B is granted; queries addressing the underlying
// relations are rejected outright by System R ("V is not only a
// statement of the permissions, but the actual access window"), while
// the paper's model infers the permitted subview and delivers it.

#include <iostream>

#include "baselines/systemr/grant_table.h"
#include "bench/exp_util.h"
#include "engine/table_printer.h"
#include "parser/parser.h"

using namespace viewauth;
using testing_util::PaperDatabase;

int main() {
  exp::Checker checker("EXP-C1: System R access windows vs inferred masks");
  PaperDatabase fixture;

  // View: employees of large projects (the paper's ELP), granted to Klein
  // in both systems.
  ConjunctiveQuery elp = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
      "PROJECT.BUDGET) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
      "and PROJECT.BUDGET >= 250000");

  systemr::SystemRAuthorizer sysr(&fixture.db().schema());
  for (const char* table : {"EMPLOYEE", "PROJECT", "ASSIGNMENT"}) {
    if (!sysr.RegisterTable(table, "dba").ok()) return 1;
  }
  if (!sysr.RegisterView("ELP", "dba", elp).ok()) return 1;
  if (!sysr.Grant("dba", "Klein", "ELP", systemr::Privilege::kRead, false)
           .ok()) {
    return 1;
  }

  // Klein's query addresses the underlying relations and is entirely
  // within ELP's permissions (names on projects over 400k).
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 400000");

  Status sysr_verdict = sysr.CheckQuery("Klein", query);
  std::cout << "[System R] " << sysr_verdict << "\n";
  checker.Check("System R rejects the within-permission query",
                sysr_verdict.IsPermissionDenied());
  checker.Check("System R allows opening the view by name",
                sysr.OpenView("Klein", "ELP").ok());

  Authorizer motro = fixture.MakeAuthorizer();
  auto result = motro.Retrieve("Klein", query);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "[Motro]    delivered " << result->answer.size()
            << " rows, full access: " << std::boolalpha
            << result->full_access << "\n";
  TablePrintOptions opts;
  std::cout << PrintRelation(result->answer, opts) << "\n";
  checker.Check("Motro model grants the same query",
                !result->denied && result->full_access);
  checker.CheckEq("Motro delivers the sv-72 team", result->answer.size(),
                  2);

  // The flip side: a query exceeding the permission is all-or-nothing in
  // System R terms but reduced to the permitted portion here.
  ConjunctiveQuery wide = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 400000");
  checker.Check("System R also rejects the over-reaching query",
                sysr.CheckQuery("Klein", wide).IsPermissionDenied());
  auto reduced = motro.Retrieve("Klein", wide);
  if (!reduced.ok()) {
    std::cerr << reduced.status() << "\n";
    return 1;
  }
  bool names_only = reduced->answer.size() > 0;
  for (const Tuple& row : reduced->answer.Materialize()) {
    if (row.at(0).is_null() || !row.at(1).is_null()) names_only = false;
  }
  checker.Check("Motro model reduces it to names", names_only);
  return checker.Finish();
}
