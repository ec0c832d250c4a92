// Shared fixtures for viewauth tests: the paper's example database
// (Figure 1) with its four views and two users.

#ifndef VIEWAUTH_TESTS_TEST_UTIL_H_
#define VIEWAUTH_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "authz/authorizer.h"
#include "calculus/conjunctive_query.h"
#include "common/logging.h"
#include "meta/view_store.h"
#include "parser/parser.h"
#include "storage/relation.h"

namespace viewauth {
namespace testing_util {

// Wall-clock bounds in tests stretch by this factor in the sanitizer
// builds of tools/check.sh, which run several times slower.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr double kSanitizerSlowdown = 10;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr double kSanitizerSlowdown = 10;
#else
inline constexpr double kSanitizerSlowdown = 1;
#endif
#else
inline constexpr double kSanitizerSlowdown = 1;
#endif

// Synthetic selection variables (w-vars) get ids from the catalog
// allocator; cache hits skip allocations, so the numbering diverges
// between a cached and an oracle run even though the masks are
// structurally identical. Collapse them before comparing.
inline std::string NormalizeSyntheticVars(const std::string& text) {
  static const std::regex kWVar("w[0-9]+");
  return std::regex_replace(text, kWVar, "w#");
}

// Everything observable about one retrieve, in comparable form.
struct Observed {
  bool denied = false;
  bool full_access = false;
  std::vector<Tuple> answer;
  std::vector<std::string> mask_keys;
  std::vector<std::string> permits;

  bool operator==(const Observed& other) const = default;
};

inline Observed Summarize(const AuthorizationResult& result) {
  Observed o;
  o.denied = result.denied;
  o.full_access = result.full_access;
  o.answer = result.answer.Materialize().SortedRows();
  for (const MetaTuple& tuple : result.mask().tuples()) {
    o.mask_keys.push_back(tuple.StructuralKey(/*include_provenance=*/false));
  }
  std::sort(o.mask_keys.begin(), o.mask_keys.end());
  for (const InferredPermit& permit : result.permits()) {
    o.permits.push_back(NormalizeSyntheticVars(permit.ToString()));
  }
  std::sort(o.permits.begin(), o.permits.end());
  return o;
}

#define VIEWAUTH_TEST_OK(expr)                                    \
  do {                                                            \
    auto _st = (expr);                                            \
    VIEWAUTH_CHECK(_st.ok()) << "status not OK: " << _st.ToString(); \
  } while (false)

// Holds the Figure 1 database: EMPLOYEE / PROJECT / ASSIGNMENT with the
// paper's rows, the views SAE, PSA, ELP, EST, and the grants to Brown
// and Klein.
class PaperDatabase {
 public:
  PaperDatabase() { Build(); }

  DatabaseInstance& db() { return db_; }
  ViewCatalog& catalog() { return *catalog_; }
  Authorizer MakeAuthorizer() { return Authorizer(&db_, catalog_.get()); }

  // Parses a retrieve statement against the schema.
  ConjunctiveQuery Query(const std::string& retrieve_text) {
    auto stmt = ParseStatement(retrieve_text);
    VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
    const auto* retrieve = std::get_if<RetrieveStmt>(&stmt.value());
    VIEWAUTH_CHECK(retrieve != nullptr) << "not a retrieve statement";
    auto query = ConjunctiveQuery::FromRetrieve(db_.schema(), *retrieve);
    VIEWAUTH_CHECK(query.ok()) << query.status().ToString();
    return std::move(query).value();
  }

 private:
  void Build() {
    // Schema. NAME / NUMBER / the ASSIGNMENT pair act as keys.
    auto employee = RelationSchema::Make(
        "EMPLOYEE",
        {{"NAME", ValueType::kString},
         {"TITLE", ValueType::kString},
         {"SALARY", ValueType::kInt64}},
        {0});
    auto project = RelationSchema::Make(
        "PROJECT",
        {{"NUMBER", ValueType::kString},
         {"SPONSOR", ValueType::kString},
         {"BUDGET", ValueType::kInt64}},
        {0});
    auto assignment = RelationSchema::Make(
        "ASSIGNMENT",
        {{"E_NAME", ValueType::kString}, {"P_NO", ValueType::kString}},
        {0, 1});
    VIEWAUTH_TEST_OK(employee.status());
    VIEWAUTH_TEST_OK(project.status());
    VIEWAUTH_TEST_OK(assignment.status());
    VIEWAUTH_TEST_OK(db_.CreateRelation(std::move(employee).value()));
    VIEWAUTH_TEST_OK(db_.CreateRelation(std::move(project).value()));
    VIEWAUTH_TEST_OK(db_.CreateRelation(std::move(assignment).value()));

    auto emp = [&](const char* name, const char* title, int64_t salary) {
      VIEWAUTH_TEST_OK(db_.Insert(
          "EMPLOYEE", Tuple({Value::String(name), Value::String(title),
                             Value::Int64(salary)})));
    };
    emp("Jones", "manager", 26000);
    emp("Smith", "technician", 22000);
    emp("Brown", "engineer", 32000);

    auto proj = [&](const char* number, const char* sponsor,
                    int64_t budget) {
      VIEWAUTH_TEST_OK(db_.Insert(
          "PROJECT", Tuple({Value::String(number), Value::String(sponsor),
                            Value::Int64(budget)})));
    };
    proj("bq-45", "Acme", 300000);
    proj("sv-72", "Apex", 450000);
    proj("vg-13", "Summit", 150000);

    auto assign = [&](const char* e, const char* p) {
      VIEWAUTH_TEST_OK(db_.Insert(
          "ASSIGNMENT", Tuple({Value::String(e), Value::String(p)})));
    };
    assign("Jones", "bq-45");
    assign("Smith", "bq-45");
    assign("Jones", "sv-72");
    assign("Brown", "sv-72");
    assign("Smith", "vg-13");
    assign("Brown", "vg-13");

    catalog_ = std::make_unique<ViewCatalog>(&db_.schema());

    DefineView("view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)");
    DefineView(
        "view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
        "PROJECT.BUDGET) "
        "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
        "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
        "and PROJECT.BUDGET >= 250000");
    DefineView(
        "view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE) "
        "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE");
    DefineView("view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET) "
               "where PROJECT.SPONSOR = Acme");

    VIEWAUTH_TEST_OK(catalog_->Permit("SAE", "Brown"));
    VIEWAUTH_TEST_OK(catalog_->Permit("PSA", "Brown"));
    VIEWAUTH_TEST_OK(catalog_->Permit("EST", "Brown"));
    VIEWAUTH_TEST_OK(catalog_->Permit("ELP", "Klein"));
    VIEWAUTH_TEST_OK(catalog_->Permit("EST", "Klein"));
  }

  void DefineView(const std::string& text) {
    auto stmt = ParseStatement(text);
    VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
    const auto* view = std::get_if<ViewStmt>(&stmt.value());
    VIEWAUTH_CHECK(view != nullptr) << "not a view statement";
    VIEWAUTH_TEST_OK(catalog_->DefineView(*view));
  }

  DatabaseInstance db_;
  std::unique_ptr<ViewCatalog> catalog_;
};

}  // namespace testing_util
}  // namespace viewauth

#endif  // VIEWAUTH_TESTS_TEST_UTIL_H_
