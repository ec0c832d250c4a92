// EXP-X1: the paper's conclusion (3), implemented: "the algorithm yields
// only permitted views (masks) that can be expressed with the attributes
// requested. It should be possible to extend our methods to deliver
// views that are expressed with additional attributes."
//
// Scenario: Brown asks for project NUMBERs only. His PSA view restricts
// SPONSOR = Acme — an attribute he did not request. The base algorithm
// must deny (Definition 3 discards the mask at the projection); the
// extension keeps the restriction as a row filter, delivers Acme's
// project numbers, and names the extra attribute in the permit.

#include <iostream>

#include "bench/exp_util.h"
#include "engine/table_printer.h"

using namespace viewauth;
using testing_util::PaperDatabase;

int main() {
  exp::Checker checker(
      "EXP-X1: masks with additional attributes (conclusion (3))");
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query("retrieve (PROJECT.NUMBER)");

  auto base = authorizer.Retrieve("Brown", query);
  if (!base.ok()) {
    std::cerr << base.status() << "\n";
    return 1;
  }
  std::cout << "base algorithm: "
            << (base->denied ? "permission denied" : "delivered") << "\n";
  checker.Check("base algorithm denies (mask not expressible)",
                base->denied);

  AuthorizationOptions options;
  options.extended_masks = true;
  auto extended = authorizer.Retrieve("Brown", query, options);
  if (!extended.ok()) {
    std::cerr << extended.status() << "\n";
    return 1;
  }
  auto namer = [&fixture](VarId v) { return fixture.catalog().VarName(v); };
  std::cout << "extended wide mask:\n"
            << extended->mask().ToString(namer) << "\n";
  TablePrintOptions opts;
  opts.caption = "extended delivery:";
  std::cout << PrintRelation(extended->answer, opts);
  for (const InferredPermit& permit : extended->permits()) {
    std::cout << permit.ToString() << "\n";
  }
  std::cout << "\n";

  checker.Check("extension delivers", !extended->denied);
  checker.CheckEq("one row (Acme's project)", extended->answer.size(), 1);
  checker.Check("the row is bq-45",
                extended->answer.Materialize().Contains(
                    Tuple({Value::String("bq-45")})));
  checker.CheckEq("permit names the additional attribute",
                  extended->permits().empty()
                      ? std::string()
                      : extended->permits()[0].ToString(),
                  std::string("permit (NUMBER) where SPONSOR = Acme"));

  // Sanity: on the paper's own examples the extension changes nothing.
  ConjunctiveQuery example1 = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000");
  auto base1 = authorizer.Retrieve("Brown", example1);
  auto ext1 = authorizer.Retrieve("Brown", example1, options);
  checker.Check("Example 1 unchanged under the extension",
                base1.ok() && ext1.ok() &&
                    base1->answer.Materialize().SameTuples(
                        ext1->answer.Materialize()));
  return checker.Finish();
}
