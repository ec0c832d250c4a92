// EXP-X3: the paper's conclusion (2), implemented (first half): views
// with disjunctions. A single grant covers an `or` of conjunctive
// branches; each branch refines independently under queries.

#include <iostream>

#include "bench/exp_util.h"
#include "engine/engine.h"

using namespace viewauth;

int main() {
  exp::Checker checker("EXP-X3: disjunctive views (conclusion (2))");
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
    insert into EMPLOYEE values (Jones, manager, 26000)
    insert into EMPLOYEE values (Smith, technician, 22000)
    insert into EMPLOYEE values (Brown, engineer, 32000)

    view JUNIOR_OR_MGR (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)
      where EMPLOYEE.SALARY < 25000
      or EMPLOYEE.TITLE = manager
    permit JUNIOR_OR_MGR to auditor
  )");
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return 1;
  }
  engine.SetSessionUser("auditor");

  auto all = engine.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)");
  if (!all.ok()) {
    std::cerr << all.status() << "\n";
    return 1;
  }
  std::cout << exp::Render(*all) << "\n";
  const AuthorizationResult* result = &*all;
  checker.Check("union delivered (Smith via salary, Jones via title)",
                result->answer.Materialize().Contains(
                    Tuple({Value::String("Smith"), Value::String("technician"),
                           Value::Int64(22000)})) &&
                    result->answer.Materialize().Contains(
                        Tuple({Value::String("Jones"),
                               Value::String("manager"),
                               Value::Int64(26000)})));
  bool brown_absent = true;
  for (const Tuple& row : result->answer.Materialize()) {
    if (row.at(0) == Value::String("Brown")) brown_absent = false;
  }
  checker.Check("rows outside every branch stay hidden", brown_absent);

  // Branch-local refinement: a query inside branch 1's range comes back
  // with the salary restriction cleared (full access through branch 1).
  auto refined = engine.Retrieve(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY) "
      "where EMPLOYEE.SALARY < 23000");
  if (!refined.ok()) {
    std::cerr << refined.status() << "\n";
    return 1;
  }
  std::cout << exp::Render(*refined) << "\n";
  checker.Check("query inside branch 1 is fully granted",
                refined->full_access);

  // The grant is atomic: denying the view removes every branch.
  if (!engine.Execute("deny JUNIOR_OR_MGR to auditor").ok()) return 1;
  auto gone = engine.Retrieve("retrieve (EMPLOYEE.NAME)");
  checker.Check("deny removes all branches", gone.ok() && gone->denied);
  return checker.Finish();
}
