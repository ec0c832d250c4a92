// EXP-EX2: the paper's Example 2. Klein retrieves names and salaries of
// engineers on very large projects. The reproduction checks the
// intermediate product stage (only the fully-combined ELP tuple survives
// the dangling-reference pruning), the final mask (NAME projected,
// SALARY withheld), the masked delivery, and the inferred statement
//   permit (NAME).

#include <iostream>

#include "bench/exp_util.h"
#include "engine/table_printer.h"

using namespace viewauth;
using testing_util::PaperDatabase;

int main() {
  exp::Checker checker("EXP-EX2: Example 2 (Klein, engineer salaries)");
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.TITLE = engineer "
      "and EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 300000");
  auto namer = [&fixture](VarId v) { return fixture.catalog().VarName(v); };

  // The unpruned product (paper's 10-row intermediate table): derive it
  // once with pruning disabled to show what the pruning removes.
  AuthorizationOptions unpruned_options;
  unpruned_options.prune_dangling = false;
  MetaRelation unpruned;
  auto unpruned_mask =
      authorizer.DeriveMask("Klein", query, unpruned_options, &unpruned);
  if (!unpruned_mask.ok()) {
    std::cerr << unpruned_mask.status() << "\n";
    return 1;
  }
  std::cout << "Product of the meta-relations before pruning ("
            << unpruned.size() << " combined tuples, paper shows 10 plus "
            << "padded fragments):\n"
            << unpruned.ToString(namer) << "\n";

  MetaRelation pruned;
  auto mask = authorizer.DeriveMask("Klein", query, AuthorizationOptions{},
                                    &pruned);
  if (!mask.ok()) {
    std::cerr << mask.status() << "\n";
    return 1;
  }
  std::cout << "After dangling-reference pruning (" << pruned.size()
            << " tuples):\n"
            << pruned.ToString(namer) << "\n";
  std::cout << "Final mask A':\n" << mask->ToString(namer) << "\n";

  auto result = authorizer.Retrieve("Klein", query);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  TablePrintOptions opts;
  opts.caption = "Delivered:";
  std::cout << PrintRelation(result->answer, opts);
  for (const InferredPermit& permit : result->permits()) {
    std::cout << permit.ToString() << "\n";
  }
  std::cout << "\n";

  // Checks against the paper.
  checker.Check("pruning removed combinations",
                pruned.size() < unpruned.size());
  int dangling_before = 0;
  for (const MetaTuple& t : unpruned.tuples()) {
    if (t.HasDanglingVariable()) ++dangling_before;
  }
  checker.Check("unpruned product contains dangling tuples",
                dangling_before > 0);
  for (const MetaTuple& t : pruned.tuples()) {
    if (t.HasDanglingVariable()) {
      checker.Check("pruned product has no dangling tuples", false);
    }
  }
  checker.CheckEq("final mask has one tuple", result->mask().size(), 1);
  if (result->mask().size() == 1) {
    const MetaTuple& m = result->mask().tuples()[0];
    checker.Check("NAME is permitted (*)",
                  m.cells()[0].is_blank() && m.cells()[0].projected);
    checker.Check("SALARY is withheld (blank)",
                  m.cells()[1].is_blank() && !m.cells()[1].projected);
    checker.CheckEq("mask carries no residual comparison",
                    m.constraints().atom_count(), 0);
  }
  checker.CheckEq("delivered rows", result->answer.size(), 1);
  checker.Check("Brown's salary is masked",
                result->answer.Materialize().Contains(
                    Tuple({Value::String("Brown"), Value::Null()})));
  checker.CheckEq("inferred permit count", result->permits().size(), 1u);
  if (!result->permits().empty()) {
    checker.CheckEq("inferred permit text", result->permits()[0].ToString(),
                    std::string("permit (NAME)"));
  }
  return checker.Finish();
}
