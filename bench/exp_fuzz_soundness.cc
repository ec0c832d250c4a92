// EXP-S1: large-scale randomized soundness campaign.
//
// The theorem of Section 4 guarantees soundness: every view in A' is a
// view of the permitted views, so nothing beyond the permissions is ever
// delivered. This harness hammers the full pipeline with randomized
// single-relation scenarios — random data, random views, random grants,
// random queries, random option combinations — and checks every
// delivered cell against a brute-force oracle: some base row must
// project onto the delivered row, satisfy the query, and fall inside a
// permitted view that projects the delivered column.
//
// (Self-joins are exercised separately: the oracle models single views,
// and the lossless-join entitlement is checked by its own experiment and
// unit tests.)

#include <iostream>
#include <random>
#include <set>

#include "authz/authorizer.h"
#include "bench/exp_util.h"
#include "calculus/conjunctive_query.h"
#include "meta/view_store.h"
#include "parser/ast.h"

using namespace viewauth;

namespace {

constexpr const char* kColumns[] = {"A", "B", "C", "D"};

struct OracleView {
  std::set<int> targets;
  std::vector<std::tuple<int, Comparator, int64_t>> conditions;
};

bool RowSatisfies(const Tuple& row,
                  const std::vector<std::tuple<int, Comparator, int64_t>>&
                      conditions) {
  for (const auto& [column, op, bound] : conditions) {
    if (!row.at(column).Satisfies(op, Value::Int64(bound))) return false;
  }
  return true;
}

}  // namespace

int main() {
  exp::Checker checker("EXP-S1: randomized soundness campaign");
  std::mt19937 rng(2026);
  std::uniform_int_distribution<int> val(0, 7);
  std::uniform_int_distribution<int> rows(1, 14);
  std::uniform_int_distribution<int> col(0, 3);
  std::uniform_int_distribution<int> ncond(0, 2);
  std::uniform_int_distribution<int> nviews(1, 4);
  std::uniform_int_distribution<int> opd(0, 5);

  constexpr int kScenarios = 600;
  long long cells_checked = 0;
  long long scenarios_run = 0;
  long long violations = 0;

  for (int scenario = 0; scenario < kScenarios; ++scenario) {
    DatabaseInstance db;
    RelationSchema schema =
        RelationSchema::Make("R",
                             {{"A", ValueType::kInt64},
                              {"B", ValueType::kInt64},
                              {"C", ValueType::kInt64},
                              {"D", ValueType::kInt64}})
            .value();
    if (!db.CreateRelation(schema).ok()) return 1;
    for (int i = rows(rng); i > 0; --i) {
      (void)db.Insert("R", Tuple({Value::Int64(val(rng)),
                                  Value::Int64(val(rng)),
                                  Value::Int64(val(rng)),
                                  Value::Int64(val(rng))}));
    }

    ViewCatalog catalog(&db.schema());
    std::vector<OracleView> oracle;
    const int view_count = nviews(rng);
    for (int v = 0; v < view_count; ++v) {
      OracleView view;
      while (view.targets.empty()) {
        for (int c = 0; c < 4; ++c) {
          if (rng() % 2 == 0) view.targets.insert(c);
        }
      }
      std::vector<AttributeRef> targets;
      for (int c : view.targets) {
        targets.push_back(AttributeRef{"R", 1, kColumns[c]});
      }
      std::vector<Condition> conditions;
      for (int i = ncond(rng); i > 0; --i) {
        int c = col(rng);
        Comparator op = static_cast<Comparator>(opd(rng));
        int64_t bound = val(rng);
        view.conditions.emplace_back(c, op, bound);
        Condition cond;
        cond.lhs = AttributeRef{"R", 1, kColumns[c]};
        cond.op = op;
        cond.rhs = ConditionOperand::Const(Value::Int64(bound));
        conditions.push_back(std::move(cond));
      }
      std::string name = "V" + std::to_string(v);
      auto query =
          ConjunctiveQuery::Build(db.schema(), name, targets, conditions);
      if (!query.ok()) continue;
      if (!catalog.DefineView(name, *query).ok()) continue;
      if (!catalog.Permit(name, "u").ok()) return 1;
      oracle.push_back(std::move(view));
    }

    // Random query.
    std::set<int> target_set;
    while (target_set.empty()) {
      for (int c = 0; c < 4; ++c) {
        if (rng() % 2 == 0) target_set.insert(c);
      }
    }
    std::vector<int> target_columns(target_set.begin(), target_set.end());
    std::vector<AttributeRef> targets;
    for (int c : target_columns) {
      targets.push_back(AttributeRef{"R", 1, kColumns[c]});
    }
    std::vector<Condition> conditions;
    std::vector<std::tuple<int, Comparator, int64_t>> raw_conditions;
    for (int i = ncond(rng); i > 0; --i) {
      int c = col(rng);
      Comparator op = static_cast<Comparator>(opd(rng));
      int64_t bound = val(rng);
      raw_conditions.emplace_back(c, op, bound);
      Condition cond;
      cond.lhs = AttributeRef{"R", 1, kColumns[c]};
      cond.op = op;
      cond.rhs = ConditionOperand::Const(Value::Int64(bound));
      conditions.push_back(std::move(cond));
    }
    auto query =
        ConjunctiveQuery::Build(db.schema(), "q", targets, conditions);
    if (!query.ok()) continue;

    // Random option combination (self-joins off: oracle models single
    // views; extended masks exercise the wide pipeline).
    AuthorizationOptions options;
    options.self_joins = false;
    options.four_case = rng() % 2 == 0;
    options.padding = rng() % 2 == 0;
    options.subsumption = rng() % 2 == 0;
    options.extended_masks = rng() % 2 == 0;
    options.use_optimized_data_plan = rng() % 2 == 0;

    Authorizer authorizer(&db, &catalog);
    auto result = authorizer.Retrieve("u", *query, options);
    if (!result.ok()) {
      std::cerr << "retrieve failed: " << result.status() << "\n";
      return 1;
    }
    ++scenarios_run;

    const Relation* base = db.GetRelation("R").value();
    for (const Tuple& answer_row : result->answer.Materialize()) {
      for (size_t i = 0; i < target_columns.size(); ++i) {
        if (answer_row.at(static_cast<int>(i)).is_null()) continue;
        ++cells_checked;
        const int column = target_columns[i];
        bool justified = false;
        for (const Tuple& base_row : *base) {
          bool projects = true;
          for (size_t j = 0; j < target_columns.size(); ++j) {
            const Value& cell = answer_row.at(static_cast<int>(j));
            if (cell.is_null()) continue;
            if (!(base_row.at(target_columns[j]) == cell)) {
              projects = false;
              break;
            }
          }
          if (!projects) continue;
          if (!RowSatisfies(base_row, raw_conditions)) continue;
          for (const OracleView& view : oracle) {
            if (!view.targets.contains(column)) continue;
            if (RowSatisfies(base_row, view.conditions)) {
              justified = true;
              break;
            }
          }
          if (justified) break;
        }
        if (!justified) ++violations;
      }
    }
  }

  std::cout << "scenarios run:   " << scenarios_run << "\n"
            << "cells checked:   " << cells_checked << "\n"
            << "violations:      " << violations << "\n\n";
  checker.Check("several hundred scenarios executed", scenarios_run >= 300);
  checker.Check("over a thousand delivered cells checked",
                cells_checked >= 1000);
  checker.CheckEq("zero soundness violations", violations, 0LL);

  // --- Phase 2: multi-relation join views. A user granted a two-table
  // join view and issuing queries inside that view must receive exactly
  // the brute-force result (soundness AND completeness for the "query is
  // a view of V" case the paper centers on).
  long long join_scenarios = 0;
  long long join_mismatches = 0;
  long long full_access_missed = 0;
  for (int scenario = 0; scenario < 200; ++scenario) {
    DatabaseInstance db;
    if (!db.CreateRelation(RelationSchema::Make(
                               "R1",
                               {{"K", ValueType::kInt64},
                                {"A", ValueType::kInt64}},
                               {0})
                               .value())
             .ok() ||
        !db.CreateRelation(RelationSchema::Make(
                               "R2",
                               {{"K", ValueType::kInt64},
                                {"B", ValueType::kInt64}},
                               {0})
                               .value())
             .ok()) {
      return 1;
    }
    std::set<int64_t> keys;
    for (int i = rows(rng); i > 0; --i) keys.insert(val(rng));
    for (int64_t k : keys) {
      (void)db.Insert("R1", Tuple({Value::Int64(k), Value::Int64(val(rng))}));
      if (rng() % 4 != 0) {  // some keys lack a partner row
        (void)db.Insert("R2",
                        Tuple({Value::Int64(k), Value::Int64(val(rng))}));
      }
    }

    const int64_t view_lo = val(rng);
    ViewCatalog catalog(&db.schema());
    {
      std::vector<AttributeRef> targets{AttributeRef{"R1", 1, "K"},
                                        AttributeRef{"R1", 1, "A"},
                                        AttributeRef{"R2", 1, "B"}};
      std::vector<Condition> conditions;
      Condition join;
      join.lhs = AttributeRef{"R1", 1, "K"};
      join.op = Comparator::kEq;
      join.rhs = ConditionOperand::Attr(AttributeRef{"R2", 1, "K"});
      conditions.push_back(join);
      Condition range;
      range.lhs = AttributeRef{"R1", 1, "A"};
      range.op = Comparator::kGe;
      range.rhs = ConditionOperand::Const(Value::Int64(view_lo));
      conditions.push_back(range);
      auto view = ConjunctiveQuery::Build(db.schema(), "VJ", targets,
                                          conditions);
      if (!view.ok() || !catalog.DefineView("VJ", *view).ok() ||
          !catalog.Permit("VJ", "u").ok()) {
        continue;
      }
    }

    // Query: the view narrowed by a random (>= view_lo) tighter bound.
    const int64_t query_lo = view_lo + (rng() % 3);
    std::vector<AttributeRef> targets{AttributeRef{"R1", 1, "K"},
                                      AttributeRef{"R1", 1, "A"},
                                      AttributeRef{"R2", 1, "B"}};
    std::vector<Condition> conditions;
    Condition join;
    join.lhs = AttributeRef{"R1", 1, "K"};
    join.op = Comparator::kEq;
    join.rhs = ConditionOperand::Attr(AttributeRef{"R2", 1, "K"});
    conditions.push_back(join);
    Condition range;
    range.lhs = AttributeRef{"R1", 1, "A"};
    range.op = Comparator::kGe;
    range.rhs = ConditionOperand::Const(Value::Int64(query_lo));
    conditions.push_back(range);
    auto query =
        ConjunctiveQuery::Build(db.schema(), "q", targets, conditions);
    if (!query.ok()) continue;

    Authorizer authorizer(&db, &catalog);
    auto result = authorizer.Retrieve("u", *query);
    if (!result.ok()) return 1;
    ++join_scenarios;

    // Brute-force expected result.
    Relation expected(result->answer.schema());
    const Relation* r1 = db.GetRelation("R1").value();
    const Relation* r2 = db.GetRelation("R2").value();
    for (const Tuple& a : *r1) {
      if (!a.at(1).Satisfies(Comparator::kGe, Value::Int64(query_lo))) {
        continue;
      }
      for (const Tuple& b : *r2) {
        if (!(a.at(0) == b.at(0))) continue;
        expected.InsertUnchecked(Tuple({a.at(0), a.at(1), b.at(1)}));
      }
    }
    if (!result->full_access) ++full_access_missed;
    if (!result->answer.Materialize().SameTuples(expected)) ++join_mismatches;
  }
  std::cout << "join scenarios:          " << join_scenarios << "\n"
            << "delivery mismatches:     " << join_mismatches << "\n"
            << "full-access not granted: " << full_access_missed << "\n\n";
  checker.Check("join scenarios executed", join_scenarios >= 150);
  checker.CheckEq("within-view join queries delivered exactly",
                  join_mismatches, 0LL);
  checker.CheckEq("within-view join queries get full access",
                  full_access_missed, 0LL);
  return checker.Finish();
}
