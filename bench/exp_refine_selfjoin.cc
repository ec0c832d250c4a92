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

  auto has_full_pair = [](const AuthorizationResult& result) {
    for (const Tuple& row : result.answer.Materialize()) {
      if (!row.at(0).is_null() && !row.at(1).is_null()) return true;
    }
    return false;
  };

  auto joined = engine.Retrieve(query);
  checker.Check("with self-joins: granted", joined.ok() && !joined->denied);
  if (joined.ok()) {
    std::cout << "with self-joins:\n" << exp::Render(*joined) << "\n";
    checker.Check("with self-joins: TITLE-SALARY pairs visible",
                  has_full_pair(*joined));
    checker.Check("with self-joins: full access", joined->full_access);
  }

  // Without the refinement the two views deliver their columns as
  // separate portions: no row ever pairs a title with a salary, because
  // the association is only derivable through the key join.
  engine.options().self_joins = false;
  auto separate = engine.Retrieve(query);
  checker.Check("without self-joins: still granted (portions)",
                separate.ok() && !separate->denied);
  if (separate.ok()) {
    std::cout << "without self-joins:\n" << exp::Render(*separate) << "\n";
    checker.Check("without self-joins: association hidden",
                  !has_full_pair(*separate));
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
  auto no_key = keyless.Retrieve(query);
  checker.Check("keyless relation: join not inferred, association hidden",
                no_key.ok() && !has_full_pair(*no_key));
  return checker.Finish();
}
