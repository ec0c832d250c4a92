// Golden S' corpus: the masks and inferred permits that S' derives for a
// fixed set of queries, compared byte for byte with the text committed
// under tests/data/sprime_golden/. It is the oracle for changes that
// should make S' cheaper without changing what it returns: every
// meta-relation operator, key and pruning step contributes to these
// texts, so any change in which tuples survive, in which order, or with
// which variables and constraints shows up as a diff.
//
// The corpus:
//   * 54 three-atom chain queries over a catalog shaped like perfbench's
//     join_cold workload (three relations, per-user B-range views and
//     key-range join views, 8 users);
//   * a query over the same chain relation twice;
//   * the paper's Examples 1-3 over the Figure 1 database.
// Each query runs under both plans and once each with padding, the
// four-case refinement and self-join inference switched off.
//
// A second pass over the chain queries checks the authorization cache's
// class keys (authz/constant_class.h): each query is served the decision
// derived for its sibling, whose constants sit in the same order class,
// and must still reproduce the fixture byte for byte.
//
// On a mismatch the test writes what it derived to
// <case>.actual.txt in its working directory (build/tests under ctest)
// and names the first differing line; after an intended change, review
// the diff and copy the file over the fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "authz/authorizer.h"
#include "authz/constant_class.h"
#include "engine/engine.h"
#include "meta/meta_tuple.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

struct Variant {
  const char* name;
  AuthorizationOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  AuthorizationOptions base;
  // Every request derives its mask afresh.
  base.enable_authz_cache = false;
  out.push_back({"vectorized", base});
  AuthorizationOptions canonical = base;
  canonical.use_optimized_data_plan = false;
  out.push_back({"canonical", canonical});
  AuthorizationOptions no_padding = base;
  no_padding.padding = false;
  out.push_back({"padding off", no_padding});
  AuthorizationOptions no_four_case = base;
  no_four_case.four_case = false;
  out.push_back({"four_case off", no_four_case});
  AuthorizationOptions no_self_joins = base;
  no_self_joins.self_joins = false;
  out.push_back({"self_joins off", no_self_joins});
  return out;
}

// One case's text: the mask in the paper's table form, the permits and
// the decision flags.
std::string Render(const std::string& label, const std::string& query,
                   const Variant& variant,
                   const Result<AuthorizationResult>& result) {
  std::ostringstream out;
  out << "== " << label << " | " << variant.name << "\n" << query << "\n";
  if (!result.ok()) {
    out << "error: " << result.status().ToString() << "\n";
    return out.str();
  }
  out << "denied " << result->denied << ", full access "
      << result->full_access << "\n";
  out << result->mask().ToString(DefaultVarName);
  for (const InferredPermit& permit : result->permits()) {
    out << permit.ToString() << "\n";
  }
  return out.str();
}

std::string FixturePath(const std::string& name) {
  return std::string(VIEWAUTH_TEST_DATA_DIR) + "/sprime_golden/" + name +
         ".txt";
}

::testing::AssertionResult MatchesGolden(const std::string& name,
                                         const std::string& actual) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  std::stringstream expected_buffer;
  expected_buffer << in.rdbuf();
  const std::string expected = expected_buffer.str();
  if (expected == actual) return ::testing::AssertionSuccess();

  const std::string actual_path = name + ".actual.txt";
  std::ofstream(actual_path, std::ios::binary) << actual;
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  for (;;) {
    ++line;
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    if (!has_want && !has_got) break;
    if (has_want != has_got || want_line != got_line) {
      return ::testing::AssertionFailure()
             << FixturePath(name) << " differs at line " << line
             << "\n  expected: " << (has_want ? want_line : "<end of file>")
             << "\n  actual:   " << (has_got ? got_line : "<end of file>")
             << "\n(derived text written to " << actual_path << ")";
    }
  }
  return ::testing::AssertionFailure()
         << FixturePath(name) << " differs (derived text written to "
         << actual_path << ")";
}

// --- The join_cold-shaped chain catalog. ------------------------------

constexpr int kUsers = 8;
constexpr int kRelations = 3;
constexpr int kViewsPerGroup = 3;
constexpr int kKeySpace = 32768;
// The fewest queries of the sibling pass a class hit must serve.
constexpr long long kMinChainClassHits = 200;

std::string ChainCatalogScript() {
  std::ostringstream out;
  for (int r = 0; r < kRelations; ++r) {
    out << "relation R" << r << " (KEY int, A int, B int)\n";
    // A few rows, so some answers are non-empty; S' never reads them.
    for (int key = 0; key < 8; ++key) {
      out << "insert into R" << r << " values (" << key * 4096 << ", "
          << (key * 4096 + 4096 * r) % kKeySpace << ", " << key * 125
          << ")\n";
    }
  }
  for (int u = 0; u < kUsers; ++u) {
    for (int r = 0; r < kRelations; ++r) {
      const std::string rel = "R" + std::to_string(r);
      for (int v = 0; v < kViewsPerGroup; ++v) {
        const int lo = v * 330 + u * 8;
        const std::string name = "G" + std::to_string(u) + "r" +
                                 std::to_string(r) + "w" + std::to_string(v);
        out << "view " << name << " (" << rel << ".KEY, " << rel << ".A, "
            << rel << ".B) where " << rel << ".B >= " << lo << " and "
            << rel << ".B < " << lo + 400 << "\n"
            << "permit " << name << " to u" << u << "\n";
      }
    }
    for (int r = 0; r + 1 < kRelations; ++r) {
      const std::string a = "R" + std::to_string(r);
      const std::string b = "R" + std::to_string(r + 1);
      for (int v = 0; v < kViewsPerGroup; ++v) {
        const int lo = v * 10923 + u * 256;
        const std::string name = "J" + std::to_string(u) + "p" +
                                 std::to_string(r) + "w" + std::to_string(v);
        out << "view " << name << " (" << a << ".KEY, " << a << ".B, " << b
            << ".KEY, " << b << ".B) where " << a << ".A = " << b
            << ".KEY and " << a << ".KEY >= " << lo << " and " << a
            << ".KEY < " << lo + 8192 << "\n"
            << "permit " << name << " to u" << u << "\n";
      }
    }
  }
  return out.str();
}

// The constants of query i: R0.KEY, R1.KEY and R2.KEY, and on every
// third query an R1.B bound.
std::vector<int> ChainConstants(int i) {
  std::vector<int> constants = {(i * 4099 + 17) % kKeySpace,
                                (i * 7919 + 3001) % kKeySpace,
                                (i * 1237 + 9000) % kKeySpace};
  if (i % 3 == 1) constants.push_back((i * 37) % 700);
  return constants;
}

// Query i with the given constants: a join_cold chain for user i mod 8
// with key constants spread across the join views' key ranges; the B
// bound makes the four-case selection conjoin and clear as well.
std::string ChainQueryWith(int i, const std::vector<int>& constants) {
  std::string text =
      "retrieve (R0.KEY, R0.B, R1.KEY, R1.B, R2.KEY, R2.B) where "
      "R0.A = R1.KEY and R1.A = R2.KEY and R0.KEY = " +
      std::to_string(constants[0]) + " and R1.KEY = " +
      std::to_string(constants[1]) + " and R2.KEY = " +
      std::to_string(constants[2]);
  if (constants.size() > 3) {
    text += " and R1.B >= " + std::to_string(constants[3]);
  }
  return text + " as u" + std::to_string(i % kUsers);
}

std::string ChainQuery(int i) { return ChainQueryWith(i, ChainConstants(i)); }

// The view constants a chain query's constants are compared with: the
// key bounds of user u's join views (R0.KEY's from the R0-R1 views,
// R1.KEY's from the R1-R2 views, which are the same numbers; R2.KEY has
// none) and the B bounds of u's range views.
std::vector<int> KeyBounds(int u) {
  std::vector<int> bounds;
  for (int v = 0; v < kViewsPerGroup; ++v) {
    bounds.push_back(v * 10923 + u * 256);
    bounds.push_back(v * 10923 + u * 256 + 8192);
  }
  return bounds;
}
std::vector<int> BBounds(int u) {
  std::vector<int> bounds;
  for (int v = 0; v < kViewsPerGroup; ++v) {
    bounds.push_back(v * 330 + u * 8);
    bounds.push_back(v * 330 + u * 8 + 400);
  }
  return bounds;
}

// A constant of the same order class as `c` among `bounds`: the middle of
// the span of its interval that keeps more than kClassGuard from both
// ends (or 1000 further out in an unbounded interval), moved off `c`
// itself. A constant within the guard of a bound has no class and stays.
int SiblingConstant(int c, const std::vector<int>& bounds) {
  int lo = std::numeric_limits<int>::min();
  int hi = std::numeric_limits<int>::max();
  for (int b : bounds) {
    if (std::abs(b - c) <= kClassGuard) return c;
    if (b < c) lo = std::max(lo, b);
    if (b > c) hi = std::min(hi, b);
  }
  int sibling;
  if (lo == std::numeric_limits<int>::min()) {
    sibling = c - 1000;
  } else if (hi == std::numeric_limits<int>::max()) {
    sibling = c + 1000;
  } else {
    sibling = (lo + hi) / 2;
  }
  return sibling != c ? sibling : c + 1;
}

std::string RunOnChainCatalog(const std::vector<std::string>& queries,
                              const std::string& label_prefix) {
  Engine engine;
  auto setup = engine.ExecuteScript(ChainCatalogScript());
  EXPECT_TRUE(setup.ok()) << setup.status();
  std::string text;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const Variant& variant : Variants()) {
      engine.options() = variant.options;
      text += Render(label_prefix + std::to_string(i), queries[i], variant,
                     engine.Retrieve(queries[i]));
    }
  }
  return text;
}

TEST(SPrimeGolden, ChainQueries) {
  std::vector<std::string> queries;
  for (int i = 0; i < 54; ++i) queries.push_back(ChainQuery(i));
  EXPECT_TRUE(
      MatchesGolden("chain_queries", RunOnChainCatalog(queries, "chain ")));
}

// The sibling pass: in one engine with the cache on, each query's
// sibling (its constants moved within their order classes) derives and
// fills the cache first, then the query itself is served — by a class
// hit wherever its constants have a class and its mask names none of
// them — and must reproduce the query's fixture exactly, mask order,
// variables and permit text included.
TEST(SPrimeGolden, ChainSiblingsServeTheFixture) {
  Engine engine;
  auto setup = engine.ExecuteScript(ChainCatalogScript());
  ASSERT_TRUE(setup.ok()) << setup.status();
  std::string text;
  for (int i = 0; i < 54; ++i) {
    const int u = i % kUsers;
    std::vector<int> sibling = ChainConstants(i);
    sibling[0] = SiblingConstant(sibling[0], KeyBounds(u));
    sibling[1] = SiblingConstant(sibling[1], KeyBounds(u));
    sibling[2] = SiblingConstant(sibling[2], {});
    if (sibling.size() > 3) sibling[3] = SiblingConstant(sibling[3], BBounds(u));
    for (const Variant& variant : Variants()) {
      engine.options() = variant.options;
      engine.options().enable_authz_cache = true;
      ASSERT_TRUE(engine.Retrieve(ChainQueryWith(i, sibling)).ok());
      text += Render("chain " + std::to_string(i), ChainQuery(i), variant,
                     engine.Retrieve(ChainQuery(i)));
    }
  }
  EXPECT_TRUE(MatchesGolden("chain_queries", text));
  // Most of the corpus has classes (246 of the 270 retrieves when this
  // pass was written); a constant within the guard of a bound, or a mask
  // that names its constant, keeps the exact key.
  EXPECT_GE(engine.authz_stats().class_hits, kMinChainClassHits);
}

TEST(SPrimeGolden, SameRelationTwice) {
  const std::vector<std::string> queries = {
      "retrieve (R1:1.KEY, R1:1.B, R1:2.KEY, R1:2.B) where "
      "R1:1.A = R1:2.KEY and R1:1.KEY = 4099 and R1:2.B < 500 as u3"};
  EXPECT_TRUE(MatchesGolden("same_relation_twice",
                            RunOnChainCatalog(queries, "self ")));
}

TEST(SPrimeGolden, PaperExamples) {
  struct Example {
    const char* label;
    const char* user;
    const char* query;
  };
  const Example examples[] = {
      {"example 1", "Brown",
       "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
       "where PROJECT.BUDGET >= 250000"},
      {"example 2", "Klein",
       "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
       "where EMPLOYEE.TITLE = engineer "
       "and EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
       "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
       "and PROJECT.BUDGET > 300000"},
      {"example 3", "Brown",
       "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, "
       "EMPLOYEE:2.SALARY) where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE"},
  };
  testing_util::PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  std::string text;
  for (const Example& example : examples) {
    const ConjunctiveQuery query = fixture.Query(example.query);
    for (const Variant& variant : Variants()) {
      text += Render(example.label,
                     std::string(example.query) + " as " + example.user,
                     variant,
                     authorizer.Retrieve(example.user, query,
                                         variant.options));
    }
  }
  EXPECT_TRUE(MatchesGolden("paper_examples", text));
}

}  // namespace
}  // namespace viewauth
