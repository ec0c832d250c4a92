// EXP-F2: the commutative diagram of Figure 2. Query processing extends
// to the meta-relations: S yields the answer A from the relations R, S'
// yields the permission views A' from R'. The diagram's structural
// properties, checked on randomized databases and queries:
//   (1) the mask A' depends only on the request and R' — never on the
//       data in R;
//   (2) the data side may use either evaluation strategy (canonical vs
//       vectorized) without changing A or the masked delivery.

#include <iostream>
#include <random>

#include "algebra/evaluator.h"
#include "algebra/vectorized.h"
#include "bench/exp_util.h"

using namespace viewauth;
using testing_util::PaperDatabase;

int main() {
  exp::Checker checker("EXP-F2: Figure 2 (commutative diagram)");
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> val(0, 5);

  int mask_stable = 0, plans_agree = 0, delivery_agrees = 0;
  constexpr int kRounds = 25;
  const char* queries[] = {
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= "
      "250000",
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.NAME = "
      "ASSIGNMENT.E_NAME",
      "retrieve (EMPLOYEE.NAME, PROJECT.BUDGET) where EMPLOYEE.NAME = "
      "ASSIGNMENT.E_NAME and ASSIGNMENT.P_NO = PROJECT.NUMBER",
      "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.SALARY) where "
      "EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
  };

  for (int round = 0; round < kRounds; ++round) {
    PaperDatabase fixture;
    Authorizer authorizer = fixture.MakeAuthorizer();
    const char* user = (round % 2 == 0) ? "Brown" : "Klein";
    ConjunctiveQuery query =
        fixture.Query(queries[static_cast<size_t>(round) % 4]);

    auto mask_before = authorizer.DeriveMask(user, query);
    // Mutate the data: extra employees/projects with random values.
    (void)fixture.db().Insert(
        "EMPLOYEE",
        Tuple({Value::String("extra" + std::to_string(round)),
               Value::String("title" + std::to_string(val(rng))),
               Value::Int64(20000 + 1000 * val(rng))}));
    (void)fixture.db().Insert(
        "PROJECT", Tuple({Value::String("p" + std::to_string(round)),
                          Value::String("Acme"),
                          Value::Int64(100000 * val(rng))}));
    auto mask_after = authorizer.DeriveMask(user, query);
    if (mask_before.ok() && mask_after.ok()) {
      std::multiset<std::string> before_keys, after_keys;
      for (const MetaTuple& t : mask_before->tuples()) {
        before_keys.insert(t.StructuralKey());
      }
      for (const MetaTuple& t : mask_after->tuples()) {
        after_keys.insert(t.StructuralKey());
      }
      if (before_keys == after_keys) ++mask_stable;
    }

    auto canonical = EvaluateCanonical(query, fixture.db());
    auto vectorized = EvaluateVectorized(query, fixture.db());
    if (canonical.ok() && vectorized.ok() &&
        canonical->SameTuples(*vectorized)) {
      ++plans_agree;
    }

    AuthorizationOptions via_canonical;
    via_canonical.use_optimized_data_plan = false;
    auto delivered_opt = authorizer.Retrieve(user, query);
    auto delivered_can = authorizer.Retrieve(user, query, via_canonical);
    if (delivered_opt.ok() && delivered_can.ok() &&
        delivered_opt->answer.Materialize().SameTuples(
            delivered_can->answer.Materialize())) {
      ++delivery_agrees;
    }
  }

  std::cout << "mask unchanged under data updates: " << mask_stable << "/"
            << kRounds << "\n"
            << "canonical == vectorized answers:   " << plans_agree << "/"
            << kRounds << "\n"
            << "masked delivery strategy-agnostic: " << delivery_agrees
            << "/" << kRounds << "\n\n";
  checker.CheckEq("mask is data-independent", mask_stable, kRounds);
  checker.CheckEq("evaluation strategies agree", plans_agree, kRounds);
  checker.CheckEq("masked delivery agrees", delivery_agrees, kRounds);
  return checker.Finish();
}
