// Baseline comparison: the introduction's two criticisms, demonstrated.
//
//  (1) System R treats a granted view as the only access window: a user
//      granted view V over A and B cannot query A directly, even for data
//      V exposes. Motro's model answers the same query with a mask.
//  (2) INGRES query modification handles rows and columns asymmetrically:
//      asking for one attribute too many rejects the whole query instead
//      of reducing it.
//
// Build & run:   cmake --build build && ./build/examples/baseline_comparison

#include <iostream>

#include "authz/authorizer.h"
#include "baselines/ingres/query_modification.h"
#include "baselines/systemr/grant_table.h"
#include "engine/table_printer.h"
#include "meta/view_store.h"
#include "parser/parser.h"

using namespace viewauth;

namespace {

template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << status << "\n";
    std::exit(1);
  }
}

RetrieveStmt ParseRetrieve(const char* text) {
  Statement stmt = Unwrap(ParseStatement(text));
  return std::get<RetrieveStmt>(stmt);
}

}  // namespace

int main() {
  // A two-relation payroll database.
  DatabaseInstance db;
  Check(db.CreateRelation(Unwrap(RelationSchema::Make(
      "STAFF",
      {{"NAME", ValueType::kString},
       {"DEPT", ValueType::kString},
       {"SALARY", ValueType::kInt64}},
      {0}))));
  Check(db.CreateRelation(Unwrap(RelationSchema::Make(
      "DEPT",
      {{"DNAME", ValueType::kString}, {"FLOOR", ValueType::kInt64}},
      {0}))));
  for (auto [n, d, s] : {std::tuple{"Ann", "sales", 51000},
                         std::tuple{"Bob", "sales", 47000},
                         std::tuple{"Cal", "lab", 63000}}) {
    Check(db.Insert("STAFF", Tuple({Value::String(n), Value::String(d),
                                    Value::Int64(s)})));
  }
  for (auto [d, f] : {std::pair{"sales", 2}, {"lab", 5}}) {
    Check(db.Insert("DEPT", Tuple({Value::String(d), Value::Int64(f)})));
  }

  // The permission everyone intends: sales staff names and floors.
  const char* view_text =
      "view SALES_FLOOR (STAFF.NAME, STAFF.DEPT, DEPT.FLOOR) "
      "where STAFF.DEPT = DEPT.DNAME and STAFF.DEPT = sales";
  // The query a user actually writes: against the underlying relations,
  // not against the view object.
  const char* staff_query_text =
      "retrieve (STAFF.NAME, STAFF.DEPT, DEPT.FLOOR) "
      "where STAFF.DEPT = DEPT.DNAME";
  RetrieveStmt staff_query = ParseRetrieve(staff_query_text);

  std::cout << "Scenario: user 'clerk' is allowed the multi-relation view\n"
            << "  " << view_text << "\n"
            << "and asks the underlying relations directly:\n  "
            << staff_query_text << "\n\n";

  // --- System R ---------------------------------------------------------
  {
    systemr::SystemRAuthorizer sysr(&db.schema());
    Check(sysr.RegisterTable("STAFF", "dba"));
    Check(sysr.RegisterTable("DEPT", "dba"));
    Statement view_stmt = Unwrap(ParseStatement(view_text));
    ConjunctiveQuery view_def = Unwrap(ConjunctiveQuery::FromView(
        db.schema(), std::get<ViewStmt>(view_stmt)));
    Check(sysr.RegisterView("SALES_FLOOR", "dba", view_def));
    Check(sysr.Grant("dba", "clerk", "SALES_FLOOR",
                     systemr::Privilege::kRead, false));

    ConjunctiveQuery query = Unwrap(
        ConjunctiveQuery::FromRetrieve(db.schema(), staff_query));
    Status direct = sysr.CheckQuery("clerk", query);
    std::cout << "[System R] query on STAFF: " << direct << "\n";
    auto via_view = sysr.OpenView("clerk", "SALES_FLOOR");
    std::cout << "[System R] naming the view instead: "
              << (via_view.ok() ? "allowed (but only through V)"
                                : via_view.status().ToString())
              << "\n\n";
  }

  // --- INGRES -----------------------------------------------------------
  {
    ingres::IngresAuthorizer ing(&db.schema());
    // INGRES cannot express the multi-relation view at all; the closest
    // single-relation permission: sales rows of STAFF, NAME and DEPT.
    ingres::Permission p;
    p.user = "clerk";
    p.relation = "STAFF";
    p.columns = {"NAME", "DEPT"};
    Condition c;
    c.lhs = AttributeRef{"STAFF", 1, "DEPT"};
    c.op = Comparator::kEq;
    c.rhs = ConditionOperand::Const(Value::String("sales"));
    p.qualification.push_back(c);
    Check(ing.AddPermission(std::move(p)));

    // The multi-relation query cannot be covered: DEPT has no permission
    // (INGRES permissions attach to a single relation).
    auto joined = ing.Retrieve("clerk", staff_query.targets,
                               staff_query.conditions, db);
    std::cout << "[INGRES] the join query: "
              << (joined.ok() ? "allowed?!" : joined.status().ToString())
              << "\n";
    // Within the single-relation permission, rows reduce gracefully...
    RetrieveStmt within_stmt =
        ParseRetrieve("retrieve (STAFF.NAME, STAFF.DEPT)");
    auto within = ing.Retrieve("clerk", within_stmt.targets,
                               within_stmt.conditions, db);
    std::cout << "[INGRES] retrieve (NAME, DEPT): "
              << (within.ok() ? "reduced to sales rows -" : "rejected")
              << "\n";
    if (within.ok()) {
      std::cout << PrintRelation(*within);
    }
    // ...but one extra column rejects the whole query (the asymmetry).
    RetrieveStmt wide = ParseRetrieve(
        "retrieve (STAFF.NAME, STAFF.DEPT, STAFF.SALARY)");
    auto beyond =
        ing.Retrieve("clerk", wide.targets, wide.conditions, db);
    std::cout << "[INGRES] retrieve (NAME, DEPT, SALARY): "
              << (beyond.ok() ? "allowed?!" : beyond.status().ToString())
              << "\n\n";
  }

  // --- Motro's model ------------------------------------------------------
  {
    ViewCatalog catalog(&db.schema());
    Statement view_stmt = Unwrap(ParseStatement(view_text));
    Check(catalog.DefineView(std::get<ViewStmt>(view_stmt)));
    Check(catalog.Permit("SALES_FLOOR", "clerk"));
    Authorizer authorizer(&db, &catalog);

    for (const char* text :
         {// The join query: reduced to sales rows, every column delivered.
          "retrieve (STAFF.NAME, STAFF.DEPT, DEPT.FLOOR) "
          "where STAFF.DEPT = DEPT.DNAME",
          // One column beyond the permission: SALARY masks, the rest flows
          // (rows AND columns reduce symmetrically).
          "retrieve (STAFF.NAME, STAFF.DEPT, STAFF.SALARY, DEPT.FLOOR) "
          "where STAFF.DEPT = DEPT.DNAME"}) {
      RetrieveStmt stmt = ParseRetrieve(text);
      ConjunctiveQuery query =
          Unwrap(ConjunctiveQuery::FromRetrieve(db.schema(), stmt));
      AuthorizationResult result =
          Unwrap(authorizer.Retrieve("clerk", query));
      std::cout << "[Motro] " << text << ":\n";
      if (result.denied) {
        std::cout << "  permission denied\n";
        continue;
      }
      std::cout << PrintRelation(result.answer);
      for (const InferredPermit& permit : result.permits()) {
        std::cout << permit.ToString() << "\n";
      }
      std::cout << "\n";
    }
  }
  return 0;
}
