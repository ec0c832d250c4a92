// EXP-EX1: the paper's Example 1. Brown retrieves numbers and sponsors of
// large projects; the mask must come out as (*, Acme*) and the delivery
// must be restricted to Acme's project with the inferred statement
//   permit (NUMBER, SPONSOR) where SPONSOR = Acme.

#include <iostream>

#include "bench/exp_util.h"
#include "engine/table_printer.h"

using namespace viewauth;
using testing_util::PaperDatabase;

int main() {
  exp::Checker checker("EXP-EX1: Example 1 (Brown, large projects)");
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000");

  auto result = authorizer.Retrieve("Brown", query);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  auto namer = [&fixture](VarId v) { return fixture.catalog().VarName(v); };
  std::cout << "Mask A':\n" << result->mask().ToString(namer) << "\n";
  TablePrintOptions opts;
  opts.caption = "Delivered:";
  std::cout << PrintRelation(result->answer, opts);
  for (const InferredPermit& permit : result->permits()) {
    std::cout << permit.ToString() << "\n";
  }
  std::cout << "\n";

  checker.Check("request is not denied", !result->denied);
  checker.Check("request is not full access", !result->full_access);
  checker.CheckEq("mask has one tuple", result->mask().size(), 1);
  if (result->mask().size() == 1) {
    const MetaTuple& mask = result->mask().tuples()[0];
    checker.Check("NUMBER cell is *", mask.cells()[0].is_blank() &&
                                          mask.cells()[0].projected);
    checker.Check("SPONSOR cell is Acme*",
                  mask.cells()[1].kind == CellKind::kConst &&
                      mask.cells()[1].constant == Value::String("Acme") &&
                      mask.cells()[1].projected);
  }
  checker.CheckEq("raw answer rows (bq-45, sv-72)", result->raw_answer.size(),
                  2);
  checker.CheckEq("delivered rows (Acme only)", result->answer.size(), 1);
  checker.Check("delivered row is (bq-45, Acme)",
                result->answer.Materialize().Contains(
                    Tuple({Value::String("bq-45"), Value::String("Acme")})));
  checker.CheckEq("inferred permit count", result->permits().size(), 1u);
  if (!result->permits().empty()) {
    checker.CheckEq("inferred permit text", result->permits()[0].ToString(),
                    std::string("permit (NUMBER, SPONSOR) where SPONSOR = "
                                "Acme"));
  }
  return checker.Finish();
}
