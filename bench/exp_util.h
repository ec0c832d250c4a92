// Helpers shared by the experiment binaries: the paper's Figure 1
// database, a printer for retrieve results and a tiny PASS/FAIL check
// harness whose summary lines feed EXPERIMENTS.md.

#ifndef VIEWAUTH_BENCH_EXP_UTIL_H_
#define VIEWAUTH_BENCH_EXP_UTIL_H_

#include <iostream>
#include <string>

#include "authz/authorizer.h"
#include "engine/table_printer.h"
#include "tests/test_util.h"

namespace viewauth {
namespace exp {

// A retrieve's result as the delivered table plus its inferred permit
// statements, or the denial.
inline std::string Render(const AuthorizationResult& result) {
  if (result.denied) return "permission denied\n";
  std::string out = PrintRelation(result.answer);
  for (const InferredPermit& permit : result.permits()) {
    out += permit.ToString() + "\n";
  }
  return out;
}

class Checker {
 public:
  explicit Checker(std::string experiment) : experiment_(std::move(experiment)) {
    std::cout << "==== " << experiment_ << " ====\n";
  }

  void Check(const std::string& what, bool ok) {
    ++total_;
    if (ok) {
      ++passed_;
      std::cout << "  [PASS] " << what << "\n";
    } else {
      std::cout << "  [FAIL] " << what << "\n";
    }
  }

  template <typename T, typename U>
  void CheckEq(const std::string& what, const T& actual, const U& expected) {
    const bool ok = actual == expected;
    Check(what, ok);
    if (!ok) {
      std::cout << "         expected: " << expected << "\n"
                << "         actual:   " << actual << "\n";
    }
  }

  // Prints the summary; returns the process exit code.
  int Finish() const {
    std::cout << experiment_ << ": " << passed_ << "/" << total_
              << " checks passed\n";
    return passed_ == total_ ? 0 : 1;
  }

 private:
  std::string experiment_;
  int total_ = 0;
  int passed_ = 0;
};

}  // namespace exp
}  // namespace viewauth

#endif  // VIEWAUTH_BENCH_EXP_UTIL_H_
