// EXP-R3: self-join inference (Section 4.2, third refinement). The
// paper's schematic example: EMPLOYEE' holds (*,*,_) and (*,_,*) — two
// views of the same relation, both projecting the key. A query selecting
// both TITLE and SALARY matches neither alone, but their lossless join
// (*,*,*) is a permitted subview and must be discovered.

#include <iostream>

#include "bench/exp_util.h"
#include "engine/engine.h"

using namespace viewauth;

int main() {
  exp::Checker checker("EXP-R3: self-join inference (Section 4.2)");
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
    insert into EMPLOYEE values (Jones, manager, 26000)
    insert into EMPLOYEE values (Smith, technician, 22000)

    view NAMES_TITLES (EMPLOYEE.NAME, EMPLOYEE.TITLE)
    view NAMES_SALARIES (EMPLOYEE.NAME, EMPLOYEE.SALARY)
    permit NAMES_TITLES to clerk
    permit NAMES_SALARIES to clerk
  )");
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return 1;
  }
  engine.SetSessionUser("clerk");

  const char* query = "retrieve (EMPLOYEE.TITLE, EMPLOYEE.SALARY)";

  auto has_full_pair = [&engine]() {
    for (const Tuple& row : engine.last_result()->answer) {
      if (!row.at(0).is_null() && !row.at(1).is_null()) return true;
    }
    return false;
  };

  auto joined = engine.Execute(query);
  checker.Check("with self-joins: granted",
                joined.ok() && !engine.last_result()->denied);
  if (joined.ok()) {
    std::cout << "with self-joins:\n" << *joined << "\n";
    checker.Check("with self-joins: TITLE-SALARY pairs visible",
                  has_full_pair());
    checker.Check("with self-joins: full access",
                  engine.last_result()->full_access);
  }

  // Without the refinement the two views deliver their columns as
  // separate portions: no row ever pairs a title with a salary, because
  // the association is only derivable through the key join.
  engine.options().self_joins = false;
  auto separate = engine.Execute(query);
  checker.Check("without self-joins: still granted (portions)",
                separate.ok() && !engine.last_result()->denied);
  if (separate.ok()) {
    std::cout << "without self-joins:\n" << *separate << "\n";
    checker.Check("without self-joins: association hidden",
                  !has_full_pair());
  }

  // Losslessness guard: without a declared key, the join is not inferred
  // even with the refinement enabled.
  Engine keyless;
  auto setup2 = keyless.ExecuteScript(R"(
    relation EMPLOYEE (NAME string, TITLE string, SALARY int)
    insert into EMPLOYEE values (Jones, manager, 26000)
    view NAMES_TITLES (EMPLOYEE.NAME, EMPLOYEE.TITLE)
    view NAMES_SALARIES (EMPLOYEE.NAME, EMPLOYEE.SALARY)
    permit NAMES_TITLES to clerk
    permit NAMES_SALARIES to clerk
  )");
  if (!setup2.ok()) {
    std::cerr << setup2.status() << "\n";
    return 1;
  }
  keyless.SetSessionUser("clerk");
  auto no_key = keyless.Execute(query);
  bool keyless_pair = false;
  for (const Tuple& row : keyless.last_result()->answer) {
    if (!row.at(0).is_null() && !row.at(1).is_null()) keyless_pair = true;
  }
  checker.Check("keyless relation: join not inferred, association hidden",
                no_key.ok() && !keyless_pair);
  return checker.Finish();
}
