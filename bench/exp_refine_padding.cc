// EXP-R1: the product padding refinement (Section 4.2). The paper's
// motivating case: if Q is a product of R and S followed by a projection
// removing all of S's attributes, Q is equivalent to R and A' should
// retain all of R's subviews. Without the padded tuples
// (a_1..a_m, blank...) those subviews are lost whenever the S-side
// meta-tuples restrict S's attributes.

#include <iostream>

#include "bench/exp_util.h"
#include "engine/engine.h"

using namespace viewauth;

int main() {
  exp::Checker checker("EXP-R1: product padding refinement (Section 4.2)");
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation STAFF (NAME string key, DEPT string)
    relation AUDIT (DEPT string key, SCORE int)
    insert into STAFF values (Ann, sales)
    insert into STAFF values (Bob, lab)
    insert into AUDIT values (sales, 4)
    insert into AUDIT values (lab, 9)

    view STAFF_ALL (STAFF.NAME, STAFF.DEPT)
    view GOOD_AUDITS (AUDIT.DEPT, AUDIT.SCORE) where AUDIT.SCORE >= 5

    permit STAFF_ALL to auditor
    permit GOOD_AUDITS to auditor
  )");
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return 1;
  }
  engine.SetSessionUser("auditor");

  // The paper's scenario: a product of the two relations followed by a
  // projection that removes the AUDIT side (here, all of it except a
  // column nobody is permitted to see). GOOD_AUDITS restricts SCORE, so
  // every combined tuple dies at the projection; STAFF_ALL survives only
  // through the padded product tuples (STAFF_ALL, blank...).
  const char* query = "retrieve (STAFF.NAME, STAFF.DEPT, AUDIT.DEPT)";

  auto with_padding = engine.Retrieve(query);
  checker.Check("with padding: granted",
                with_padding.ok() && !with_padding->denied);
  if (with_padding.ok()) {
    std::cout << "with padding:\n" << exp::Render(*with_padding) << "\n";
    // The STAFF columns flow (deduplicated to the two staff rows);
    // AUDIT.DEPT is withheld.
    checker.CheckEq("with padding: two masked rows",
                    with_padding->answer.size(), 2);
    bool audit_masked = true;
    for (const Tuple& row : with_padding->answer.Materialize()) {
      if (!row.at(2).is_null()) audit_masked = false;
    }
    checker.Check("with padding: AUDIT.DEPT column masked", audit_masked);
  }

  engine.options().padding = false;
  auto without_padding = engine.Retrieve(query);
  checker.Check("without padding: denied (subviews lost at projection)",
                without_padding.ok() && without_padding->denied);
  if (without_padding.ok()) {
    std::cout << "without padding:\n" << exp::Render(*without_padding)
              << "\n";
  }
  return checker.Finish();
}
