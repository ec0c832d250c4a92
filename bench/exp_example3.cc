// EXP-EX3: the paper's Example 3. Brown retrieves names and salaries of
// same-title employee pairs. The SAE and EST subviews self-join (both
// include the EMPLOYEE key), the combined (EST,SAE) tuples carry the
// whole request, and the answer is delivered in full with no permit
// statements.

#include <iostream>

#include "bench/exp_util.h"
#include "engine/table_printer.h"

using namespace viewauth;
using testing_util::PaperDatabase;

int main() {
  exp::Checker checker("EXP-EX3: Example 3 (Brown, same-title pairs)");
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, "
      "EMPLOYEE:2.SALARY) "
      "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE");
  auto namer = [&fixture](VarId v) { return fixture.catalog().VarName(v); };

  // The pruned EMPLOYEE' with inferred self-joins (the paper's combined
  // (EST,SAE) rows).
  auto pruned = authorizer.PrunedMetaRelation("Brown", query, 0);
  if (!pruned.ok()) {
    std::cerr << pruned.status() << "\n";
    return 1;
  }
  std::cout << "Pruned EMPLOYEE' with self-joins:\n"
            << pruned->ToString(namer) << "\n";
  int est_sae = 0;
  for (const MetaTuple& t : pruned->tuples()) {
    if (t.views().contains("EST") && t.views().contains("SAE")) {
      ++est_sae;
      checker.Check("self-join tuple is (*, x4*, *)",
                    t.cells()[0].is_blank() && t.cells()[0].projected &&
                        t.cells()[1].kind == CellKind::kVar &&
                        t.cells()[1].projected &&
                        t.cells()[2].is_blank() && t.cells()[2].projected);
    }
  }
  checker.CheckEq("two (EST,SAE) self-join tuples", est_sae, 2);

  auto result = authorizer.Retrieve("Brown", query);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "Final mask A':\n" << result->mask().ToString(namer) << "\n";
  TablePrintOptions opts;
  opts.caption = "Delivered:";
  std::cout << PrintRelation(result->answer, opts) << "\n";

  checker.Check("full access (entire answer permitted)",
                result->full_access);
  checker.Check("no accompanying permit statements",
                result->permits().empty());
  checker.CheckEq("answer rows (identical-title pairs)",
                  result->answer.size(), 3);
  checker.Check("answer equals the unmasked answer",
                result->answer.Materialize().SameTuples(
                    result->raw_answer.Materialize()));
  checker.Check("salaries are visible",
                result->answer.Materialize().Contains(Tuple(
                    {Value::String("Jones"), Value::Int64(26000),
                     Value::String("Jones"), Value::Int64(26000)})));

  // Contrast: without the self-join refinement, salaries are withheld.
  AuthorizationOptions no_self_joins;
  no_self_joins.self_joins = false;
  auto restricted = authorizer.Retrieve("Brown", query, no_self_joins);
  if (!restricted.ok()) {
    std::cerr << restricted.status() << "\n";
    return 1;
  }
  checker.Check("without self-joins: not full access",
                !restricted->full_access);
  bool salaries_masked = true;
  for (const Tuple& row : restricted->answer.Materialize()) {
    if (!row.at(1).is_null() || !row.at(3).is_null()) {
      salaries_masked = false;
    }
  }
  checker.Check("without self-joins: salaries masked", salaries_masked);
  return checker.Finish();
}
