// Property tests for the authorization pipeline:
//   * soundness — no delivered cell exceeds what some permitted view
//     exposes (checked against a brute-force oracle on randomized
//     single-relation scenarios);
//   * monotonicity — each Section 4.2 refinement only ever adds
//     permitted cells;
//   * data-independence — the mask A' is a function of the request and
//     the meta-relations, never of the data (Figure 2's structure).

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "authz/authorizer.h"
#include "calculus/conjunctive_query.h"
#include "meta/view_store.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

// One randomized scenario over R(A,B,C,D).
struct Scenario {
  DatabaseInstance db;
  std::unique_ptr<ViewCatalog> catalog;
  // Per view: the target column indices and conditions in raw form, for
  // the oracle.
  struct OracleView {
    std::set<int> target_columns;
    std::vector<std::pair<int, std::pair<Comparator, int64_t>>> conditions;
  };
  std::vector<OracleView> views;  // all granted to user "u"
};

constexpr const char* kColumnNames[] = {"A", "B", "C", "D"};

Scenario MakeScenario(std::mt19937& rng) {
  Scenario s;
  std::uniform_int_distribution<int> val(0, 6);
  std::uniform_int_distribution<int> rows(1, 10);
  std::uniform_int_distribution<int> col(0, 3);
  std::uniform_int_distribution<int> ncond(0, 2);
  std::uniform_int_distribution<int> nviews(1, 3);
  std::uniform_int_distribution<int> opd(0, 5);

  RelationSchema schema =
      RelationSchema::Make("R",
                           {{"A", ValueType::kInt64},
                            {"B", ValueType::kInt64},
                            {"C", ValueType::kInt64},
                            {"D", ValueType::kInt64}})
          .value();
  EXPECT_TRUE(s.db.CreateRelation(schema).ok());
  for (int i = rows(rng); i > 0; --i) {
    EXPECT_TRUE(s.db.Insert("R", Tuple({Value::Int64(val(rng)),
                                        Value::Int64(val(rng)),
                                        Value::Int64(val(rng)),
                                        Value::Int64(val(rng))}))
                    .ok());
  }
  s.catalog = std::make_unique<ViewCatalog>(&s.db.schema());

  const int view_count = nviews(rng);
  for (int v = 0; v < view_count; ++v) {
    Scenario::OracleView oracle;
    // Non-empty random target set.
    while (oracle.target_columns.empty()) {
      for (int c = 0; c < 4; ++c) {
        if (rng() % 2 == 0) oracle.target_columns.insert(c);
      }
    }
    std::vector<AttributeRef> targets;
    for (int c : oracle.target_columns) {
      targets.push_back(AttributeRef{"R", 1, kColumnNames[c]});
    }
    std::vector<Condition> conditions;
    for (int i = ncond(rng); i > 0; --i) {
      int c = col(rng);
      Comparator op = static_cast<Comparator>(opd(rng));
      int64_t bound = val(rng);
      oracle.conditions.push_back({c, {op, bound}});
      Condition cond;
      cond.lhs = AttributeRef{"R", 1, kColumnNames[c]};
      cond.op = op;
      cond.rhs = ConditionOperand::Const(Value::Int64(bound));
      conditions.push_back(std::move(cond));
    }
    std::string name = "V" + std::to_string(v);
    auto query = ConjunctiveQuery::Build(s.db.schema(), name, targets,
                                         conditions);
    if (!query.ok()) continue;  // contradictory view: skip
    if (!s.catalog->DefineView(name, *query).ok()) continue;
    EXPECT_TRUE(s.catalog->Permit(name, "u").ok());
    s.views.push_back(std::move(oracle));
  }
  return s;
}

// Builds a random query over R; returns its targets/conditions too.
struct RandomQuery {
  ConjunctiveQuery query;
  std::vector<int> target_columns;
  std::vector<std::pair<int, std::pair<Comparator, int64_t>>> conditions;
};

std::optional<RandomQuery> MakeQuery(const DatabaseSchema& schema,
                                     std::mt19937& rng) {
  std::uniform_int_distribution<int> val(0, 6);
  std::uniform_int_distribution<int> ncond(0, 2);
  std::uniform_int_distribution<int> opd(0, 5);

  std::set<int> target_set;
  while (target_set.empty()) {
    for (int c = 0; c < 4; ++c) {
      if (rng() % 2 == 0) target_set.insert(c);
    }
  }
  std::vector<AttributeRef> targets;
  std::vector<int> target_columns(target_set.begin(), target_set.end());
  for (int c : target_columns) {
    targets.push_back(AttributeRef{"R", 1, kColumnNames[c]});
  }
  std::vector<Condition> conditions;
  std::vector<std::pair<int, std::pair<Comparator, int64_t>>> raw;
  std::uniform_int_distribution<int> col(0, 3);
  for (int i = ncond(rng); i > 0; --i) {
    int c = col(rng);
    Comparator op = static_cast<Comparator>(opd(rng));
    int64_t bound = val(rng);
    raw.push_back({c, {op, bound}});
    Condition cond;
    cond.lhs = AttributeRef{"R", 1, kColumnNames[c]};
    cond.op = op;
    cond.rhs = ConditionOperand::Const(Value::Int64(bound));
    conditions.push_back(std::move(cond));
  }
  auto query =
      ConjunctiveQuery::Build(schema, "q", targets, conditions);
  if (!query.ok()) return std::nullopt;
  return RandomQuery{std::move(*query), std::move(target_columns),
                     std::move(raw)};
}

bool RowSatisfiesRaw(
    const Tuple& row,
    const std::vector<std::pair<int, std::pair<Comparator, int64_t>>>&
        conditions) {
  for (const auto& [column, pred] : conditions) {
    if (!row.at(column).Satisfies(pred.first, Value::Int64(pred.second))) {
      return false;
    }
  }
  return true;
}

long long CountDeliveredCells(const ColumnAnswer& answer) {
  long long count = 0;
  for (size_t r = 0; r < static_cast<size_t>(answer.size()); ++r) {
    for (size_t c = 0; c < static_cast<size_t>(answer.arity()); ++c) {
      if (!answer.cell(r, c).is_null()) ++count;
    }
  }
  return count;
}

class AuthzPropertyTest : public ::testing::TestWithParam<int> {};

// Soundness oracle (self-joins off): a delivered cell (answer row, column
// c) requires a base row that (a) projects onto the answer row, (b)
// satisfies the query, and (c) satisfies some permitted view projecting c.
TEST_P(AuthzPropertyTest, NoCellBeyondPermittedViews) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int round = 0; round < 15; ++round) {
    Scenario s = MakeScenario(rng);
    auto rq = MakeQuery(s.db.schema(), rng);
    if (!rq.has_value()) continue;
    Authorizer authorizer(&s.db, s.catalog.get());
    AuthorizationOptions options;
    options.self_joins = false;  // the oracle models single views only
    auto result = authorizer.Retrieve("u", rq->query, options);
    ASSERT_TRUE(result.ok()) << result.status();

    const Relation* base = s.db.GetRelation("R").value();
    for (const Tuple& answer_row : result->answer.Materialize()) {
      for (size_t i = 0; i < rq->target_columns.size(); ++i) {
        if (answer_row.at(static_cast<int>(i)).is_null()) continue;
        const int column = rq->target_columns[i];
        bool justified = false;
        for (const Tuple& base_row : *base) {
          // (a) projection match on every non-null answer cell.
          bool projects = true;
          for (size_t j = 0; j < rq->target_columns.size(); ++j) {
            const Value& cell = answer_row.at(static_cast<int>(j));
            if (cell.is_null()) continue;
            if (!(base_row.at(rq->target_columns[j]) == cell)) {
              projects = false;
              break;
            }
          }
          if (!projects) continue;
          // (b) the query's own conditions.
          if (!RowSatisfiesRaw(base_row, rq->conditions)) continue;
          // (c) some permitted view exposes the column on this row.
          for (const Scenario::OracleView& view : s.views) {
            if (!view.target_columns.contains(column)) continue;
            if (RowSatisfiesRaw(base_row, view.conditions)) {
              justified = true;
              break;
            }
          }
          if (justified) break;
        }
        EXPECT_TRUE(justified)
            << "cell in column " << kColumnNames[column]
            << " of row " << answer_row.ToString()
            << " is not justified by any permitted view";
      }
    }
  }
}

// Each refinement can only add delivered cells, never remove any.
TEST_P(AuthzPropertyTest, RefinementsAreMonotone) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
  for (int round = 0; round < 10; ++round) {
    Scenario s = MakeScenario(rng);
    auto rq = MakeQuery(s.db.schema(), rng);
    if (!rq.has_value()) continue;
    Authorizer authorizer(&s.db, s.catalog.get());

    AuthorizationOptions base;
    base.four_case = false;
    base.padding = false;
    base.self_joins = false;
    base.drop_fully_masked_rows = false;
    auto base_result = authorizer.Retrieve("u", rq->query, base);
    ASSERT_TRUE(base_result.ok());

    for (int refinement = 0; refinement < 3; ++refinement) {
      AuthorizationOptions refined = base;
      if (refinement == 0) refined.four_case = true;
      if (refinement == 1) refined.padding = true;
      if (refinement == 2) refined.self_joins = true;
      auto refined_result = authorizer.Retrieve("u", rq->query, refined);
      ASSERT_TRUE(refined_result.ok());
      EXPECT_GE(CountDeliveredCells(refined_result->answer),
                CountDeliveredCells(base_result->answer))
          << "refinement " << refinement << " lost cells";
    }
  }
}

// The mask is derived from the request and the stored views alone: data
// changes must not affect it (the structure behind Figure 2).
TEST_P(AuthzPropertyTest, MaskIsDataIndependent) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 2000);
  Scenario s = MakeScenario(rng);
  auto rq = MakeQuery(s.db.schema(), rng);
  if (!rq.has_value()) return;
  Authorizer authorizer(&s.db, s.catalog.get());

  auto mask_before = authorizer.DeriveMask("u", rq->query);
  ASSERT_TRUE(mask_before.ok());
  ASSERT_TRUE(s.db.Insert("R", Tuple({Value::Int64(99), Value::Int64(99),
                                      Value::Int64(99), Value::Int64(99)}))
                  .ok());
  auto mask_after = authorizer.DeriveMask("u", rq->query);
  ASSERT_TRUE(mask_after.ok());

  auto keys = [](const MetaRelation& mask) {
    std::multiset<std::string> out;
    for (const MetaTuple& tuple : mask.tuples()) {
      out.insert(tuple.StructuralKey());
    }
    return out;
  };
  EXPECT_EQ(keys(*mask_before), keys(*mask_after));
}

// Masked answers never invent data: every delivered cell appears in the
// raw answer at the same position.
TEST_P(AuthzPropertyTest, MaskedIsSubsetOfRaw) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 3000);
  for (int round = 0; round < 10; ++round) {
    Scenario s = MakeScenario(rng);
    auto rq = MakeQuery(s.db.schema(), rng);
    if (!rq.has_value()) continue;
    Authorizer authorizer(&s.db, s.catalog.get());
    auto result = authorizer.Retrieve("u", rq->query);
    ASSERT_TRUE(result.ok());
    for (const Tuple& row : result->answer.Materialize()) {
      bool matched = false;
      for (const Tuple& raw : result->raw_answer.Materialize()) {
        bool compatible = true;
        for (int i = 0; i < row.arity(); ++i) {
          if (!row.at(i).is_null() && !(row.at(i) == raw.at(i))) {
            compatible = false;
            break;
          }
        }
        if (compatible) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << row.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuthzPropertyTest, ::testing::Range(1, 9));

// A user's own permitted view, asked verbatim as a query, comes back with
// full access (the paper's "Q is a view of V" case).
TEST(AuthzInvariants, OwnViewIsFullyGranted) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, "
      "PROJECT.BUDGET) "
      "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and PROJECT.NUMBER = ASSIGNMENT.P_NO "
      "and PROJECT.BUDGET >= 250000");
  auto result = authorizer.Retrieve("Klein", query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->denied);
  EXPECT_TRUE(result->full_access);
}

// The meta-relation cache must never serve stale results across
// view/permission mutations.
TEST(AuthzInvariants, CacheInvalidatesOnCatalogMutation) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)");

  auto before = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->denied);  // PSA covers the request (warm the cache)

  ASSERT_TRUE(fixture.catalog().Deny("PSA", "Brown").ok());
  auto after_deny = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(after_deny.ok());
  EXPECT_TRUE(after_deny->denied);

  ASSERT_TRUE(fixture.catalog().Permit("PSA", "Brown").ok());
  auto after_regrant = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(after_regrant.ok());
  EXPECT_FALSE(after_regrant->denied);
  EXPECT_TRUE(after_regrant->answer.Materialize().SameTuples(
      before->answer.Materialize()));
}

TEST(AuthzInvariants, NoViewsMeansDenied) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  ConjunctiveQuery query = fixture.Query("retrieve (EMPLOYEE.NAME)");
  auto result = authorizer.Retrieve("Stranger", query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->denied);
  EXPECT_EQ(result->answer.size(), 0);
}

}  // namespace
}  // namespace viewauth
