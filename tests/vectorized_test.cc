// Tests for the vectorized columnar data plan (algebra/vectorized.h),
// the column-batch predicate kernels (storage/column_batch.h), and the
// fused compiled-mask batch application (Authorizer::ApplyMaskVectorized).
//
// The contract under test throughout: every batched path agrees with
// its independent reference — the canonical plan for answers and
// rows_scanned accounting, the interpretive Authorizer::RowSatisfies
// and Authorizer::ApplyMask for masks (same rows, same delivery order)
// — and honors the governor.

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "algebra/evaluator.h"
#include "algebra/vectorized.h"
#include "authz/authz_cache.h"
#include "authz/compiled_mask.h"
#include "parser/parser.h"
#include "storage/column_answer.h"
#include "storage/column_batch.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::PaperDatabase;

// ---------------------------------------------------------------------
// Kernel oracle: every Filter* kernel must agree with a per-row
// Value::Satisfies loop on arbitrary mixed-type windows.
// ---------------------------------------------------------------------

Value RandomValue(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_int_distribution<int> small(-3, 3);
  switch (kind(rng)) {
    case 0:
      return Value::Int64(small(rng));
    case 1:
      return Value::Double(static_cast<double>(small(rng)) / 2.0);
    case 2:
      return Value::String(std::string(1, static_cast<char>('a' + (small(rng) + 3))));
    case 3:
      return Value::Null();
    default:
      return Value::Int64(small(rng));
  }
}

// A uniform window (single type, no NULLs) exercises the typed fast
// paths; a mixed window exercises the boxed fallback.
std::vector<Tuple> RandomRows(std::mt19937& rng, size_t n, bool uniform) {
  std::vector<Tuple> rows;
  std::uniform_int_distribution<int> small(-3, 3);
  for (size_t i = 0; i < n; ++i) {
    if (uniform) {
      rows.push_back(
          Tuple({Value::Int64(small(rng)), Value::Int64(small(rng))}));
    } else {
      rows.push_back(Tuple({RandomValue(rng), RandomValue(rng)}));
    }
  }
  return rows;
}

// A batch over every row of a relation, batch column c reading
// attribute c.
class WholeRelationBatch {
 public:
  explicit WholeRelationBatch(const Relation& rel) : rows_(AllRowsOf(rel)) {
    for (int c = 0; c < rel.schema().arity(); ++c) {
      sources_.push_back(ColumnSource{&rel, 0, c});
    }
    batch_.Reset(sources_, rows_.ids.data(), rows_.size(), rows_.stride);
  }
  WholeRelationBatch(const WholeRelationBatch&) = delete;
  WholeRelationBatch& operator=(const WholeRelationBatch&) = delete;
  ColumnBatch& batch() { return batch_; }

 private:
  RowIdAnswer rows_;
  std::vector<ColumnSource> sources_;
  ColumnBatch batch_;
};

// `rows` (two cells each) as a relation with a third column holding the
// row's ordinal, so equal rows stay distinct.
Relation TaggedRelation(const std::vector<Tuple>& rows) {
  Relation rel(RelationSchema::Make("ROWS", {{"A", ValueType::kInt64},
                                             {"B", ValueType::kInt64},
                                             {"ORD", ValueType::kInt64}})
                   .value());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<Value> values = rows[i].values();
    values.push_back(Value::Int64(static_cast<int64_t>(i)));
    rel.AppendDistinct(Tuple(std::move(values)));
  }
  return rel;
}

TEST(ColumnBatchKernels, AgreeWithSatisfiesOnRandomWindows) {
  const Comparator ops[] = {Comparator::kEq, Comparator::kNe,
                            Comparator::kLt, Comparator::kLe,
                            Comparator::kGt, Comparator::kGe};
  std::mt19937 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const bool uniform = trial % 2 == 0;
    const std::vector<Tuple> rows = RandomRows(rng, 64, uniform);
    const Relation rel = TaggedRelation(rows);
    WholeRelationBatch whole(rel);
    ColumnBatch& batch = whole.batch();
    const Value rhs_const = RandomValue(rng);
    for (Comparator op : ops) {
      // Column-vs-constant.
      std::vector<uint32_t> sel;
      ResetSelection(&sel, rows.size());
      FilterColumnConst(batch.column(0), op, rhs_const, &sel);
      std::vector<uint32_t> want;
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (rows[i].values()[0].Satisfies(op, rhs_const)) want.push_back(i);
      }
      EXPECT_EQ(sel, want) << "const op " << static_cast<int>(op)
                           << " trial " << trial;

      // Column-vs-column.
      ResetSelection(&sel, rows.size());
      FilterColumnColumn(batch.column(0), op, batch.column(1), &sel);
      want.clear();
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (rows[i].values()[0].Satisfies(op, rows[i].values()[1])) {
          want.push_back(i);
        }
      }
      EXPECT_EQ(sel, want) << "col op " << static_cast<int>(op) << " trial "
                           << trial;
    }

    // Not-null.
    std::vector<uint32_t> sel;
    ResetSelection(&sel, rows.size());
    FilterNotNull(batch.column(1), &sel);
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].values()[1].is_null()) want.push_back(i);
    }
    EXPECT_EQ(sel, want) << "not-null trial " << trial;
  }
}

TEST(ColumnBatchKernels, NullConstantClearsSelection) {
  // NULL never satisfies any comparator, so a NULL rhs empties the
  // selection wholesale.
  const std::vector<Tuple> rows = {Tuple({Value::Int64(1), Value::Null()}),
                                   Tuple({Value::Null(), Value::Null()})};
  const Relation rel = TaggedRelation(rows);
  WholeRelationBatch whole(rel);
  std::vector<uint32_t> sel;
  ResetSelection(&sel, rows.size());
  FilterColumnConst(whole.batch().column(0), Comparator::kEq, Value::Null(),
                    &sel);
  EXPECT_TRUE(sel.empty());
}

// ---------------------------------------------------------------------
// Selection-vector edges around the batch boundary: empty input,
// all-pass, all-fail, and sizes straddling kColumnBatchRows.
// ---------------------------------------------------------------------

class SelectionEdge {
 public:
  // A single relation with `n` rows; relations are sets, so a unique ID
  // column keeps every row distinct. Row i has A = i % 7 and B chosen so
  // that `A = B` holds according to `pass(i)`.
  SelectionEdge(size_t n, bool (*pass)(size_t)) {
    auto schema = RelationSchema::Make("R", {{"ID", ValueType::kInt64},
                                             {"A", ValueType::kInt64},
                                             {"B", ValueType::kInt64}});
    VIEWAUTH_TEST_OK(schema.status());
    VIEWAUTH_TEST_OK(db_.CreateRelation(std::move(schema).value()));
    for (size_t i = 0; i < n; ++i) {
      const int64_t a = static_cast<int64_t>(i % 7);
      const int64_t b = pass(i) ? a : a + 1;
      VIEWAUTH_TEST_OK(
          db_.Insert("R", Tuple({Value::Int64(static_cast<int64_t>(i)),
                                 Value::Int64(a), Value::Int64(b)})));
      if (pass(i)) expected_.push_back(static_cast<uint32_t>(i));
    }
  }

  // Runs the non-indexable predicate R.A = R.B through the vectorized
  // row-id scan and differences it against the expected ids and the
  // full-scan rows_scanned accounting.
  void Check(size_t n) {
    const ConjunctivePredicate pred(
        {SelectionAtom::ColumnColumn(1, Comparator::kEq, 2)});
    auto rel = db_.GetRelation("R");
    ASSERT_TRUE(rel.ok());
    EvalStats stats;
    const std::vector<uint32_t> got =
        VectorizedSelectRowIds(**rel, (*rel)->schema(), pred, &stats);
    EXPECT_EQ(got, expected_);
    EXPECT_EQ(stats.rows_scanned, static_cast<long long>(n));
    const long long batches =
        static_cast<long long>((n + kColumnBatchRows - 1) / kColumnBatchRows);
    EXPECT_EQ(stats.batches_evaluated, batches);
  }

 private:
  DatabaseInstance db_;
  std::vector<uint32_t> expected_;
};

TEST(SelectionVector, EmptyRelation) {
  SelectionEdge edge(0, [](size_t) { return true; });
  edge.Check(0);
}

TEST(SelectionVector, AllPass) {
  SelectionEdge edge(100, [](size_t) { return true; });
  edge.Check(100);
}

TEST(SelectionVector, AllFail) {
  SelectionEdge edge(100, [](size_t) { return false; });
  edge.Check(100);
}

TEST(SelectionVector, BatchBoundaryMinusOne) {
  SelectionEdge edge(1023, [](size_t i) { return i % 3 == 0; });
  edge.Check(1023);
}

TEST(SelectionVector, BatchBoundaryExact) {
  SelectionEdge edge(1024, [](size_t i) { return i % 3 == 0; });
  edge.Check(1024);
}

TEST(SelectionVector, BatchBoundaryPlusOne) {
  SelectionEdge edge(1025, [](size_t i) { return i % 3 == 0; });
  edge.Check(1025);
}

// ---------------------------------------------------------------------
// Plan equivalence: vectorized == canonical on the paper queries and on
// randomized instances.
// ---------------------------------------------------------------------

TEST(Vectorized, MatchesCanonicalOnPaperQueries) {
  PaperDatabase fixture;
  for (const char* text : {
           "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET >= 250000",
           "retrieve (ASSIGNMENT.E_NAME)",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
           "and PROJECT.BUDGET > 300000",
           "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME) "
           "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
           "retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Acme",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.SALARY >= PROJECT.BUDGET",  // cartesian + filter
           "retrieve (PROJECT.NUMBER) where PROJECT.SPONSOR = Nowhere",
       }) {
    ConjunctiveQuery query = fixture.Query(text);
    auto canonical = EvaluateCanonical(query, fixture.db());
    auto vectorized = EvaluateVectorized(query, fixture.db());
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(vectorized.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*vectorized)) << text;
  }
}

// The canonical plan is the only other data plan.
class VectorizedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(VectorizedEquivalenceTest, MatchesAllOtherPlans) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> val(0, 4);
  std::uniform_int_distribution<int> rows(0, 12);

  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "R",
                                    {{"A", ValueType::kInt64},
                                     {"B", ValueType::kInt64}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "S",
                                    {{"C", ValueType::kInt64},
                                     {"D", ValueType::kInt64}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(
                    RelationSchema::Make("T", {{"E", ValueType::kInt64}})
                        .value())
                  .ok());
  for (int i = rows(rng); i > 0; --i) {
    ASSERT_TRUE(db.Insert("R", Tuple({Value::Int64(val(rng)),
                                      Value::Int64(val(rng))}))
                    .ok());
  }
  for (int i = rows(rng); i > 0; --i) {
    ASSERT_TRUE(db.Insert("S", Tuple({Value::Int64(val(rng)),
                                      Value::Int64(val(rng))}))
                    .ok());
  }
  for (int i = rows(rng); i > 0; --i) {
    ASSERT_TRUE(db.Insert("T", Tuple({Value::Int64(val(rng))})).ok());
  }

  const char* queries[] = {
      "retrieve (R.A, S.D) where R.B = S.C",
      "retrieve (R.A) where R.B = S.C and S.D = T.E",
      "retrieve (R.A, R.B)",
      "retrieve (R.A, S.C) where R.A >= 2 and S.C < 3",
      "retrieve (R.A, S.D) where R.B != S.C",  // no equality: cartesian
      "retrieve (R:1.A, R:2.B) where R:1.B = R:2.A and R:1.A <= 2",
      "retrieve (R.A, S.C, T.E) where R.A = S.C and S.C = T.E",
      "retrieve (R.B) where R.A = 3",
      "retrieve (R.A, S.D) where R.B = S.C and S.D = 2 and R.A = 1",
      // Two equality keys between the same pair of atoms: a compound
      // join key.
      "retrieve (R.A, S.D) where R.A = S.C and R.B = S.D",
  };
  for (const char* text : queries) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    auto query = ConjunctiveQuery::FromRetrieve(
        db.schema(), std::get<RetrieveStmt>(*stmt));
    ASSERT_TRUE(query.ok()) << text;
    auto canonical = EvaluateCanonical(*query, db);
    auto vectorized = EvaluateVectorized(*query, db);
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(vectorized.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*vectorized))
        << text << "\ncanonical: " << canonical->size()
        << " rows, vectorized: " << vectorized->size() << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedEquivalenceTest,
                         ::testing::Range(1, 11));

// Mixed-type and NULL-bearing columns force the kMixed boxed fallback in
// the kernels; -0.0 / 0.0, Double / Int64 and beyond-2^53 join keys test
// the hash join's key equality. The results must match the canonical
// plan, whose selection compares numerically and never matches NULL.
TEST(Vectorized, MixedTypeColumnsMatchCanonical) {
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "L",
                                    {{"K", ValueType::kDouble},
                                     {"P", ValueType::kString}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "M",
                                    {{"K", ValueType::kDouble},
                                     {"Q", ValueType::kInt64}})
                                    .value())
                  .ok());
  auto ins = [&](const char* rel, Value k, Value v) {
    ASSERT_TRUE(db.Insert(rel, Tuple({std::move(k), std::move(v)})).ok());
  };
  ins("L", Value::Double(5.0), Value::String("five"));
  ins("L", Value::Double(2.5), Value::String("half"));
  ins("L", Value::Null(), Value::String("none"));
  ins("L", Value::Double(-0.0), Value::String("zero"));
  ins("L", Value::Double(9007199254740992.0), Value::String("two53"));
  ins("M", Value::Double(5.0), Value::Int64(1));
  ins("M", Value::Double(2.5), Value::Int64(2));
  ins("M", Value::Null(), Value::Int64(3));
  ins("M", Value::Double(0.0), Value::Int64(4));
  ins("M", Value::Double(1.5), Value::Int64(5));
  // 2^53 + 1 is not a double; numerically it equals 2^53 as a double.
  ins("M", Value::Double(3.5), Value::Int64(9007199254740993));

  for (const char* text : {
           "retrieve (L.P, M.Q) where L.K = M.K",
           "retrieve (L.P) where L.K >= 2.5",
           "retrieve (L.P, M.Q) where L.K != M.K",
           "retrieve (L.P, M.K) where L.K = M.Q",
       }) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    auto query = ConjunctiveQuery::FromRetrieve(
        db.schema(), std::get<RetrieveStmt>(*stmt));
    ASSERT_TRUE(query.ok()) << text;
    auto canonical = EvaluateCanonical(*query, db);
    auto vectorized = EvaluateVectorized(*query, db);
    ASSERT_TRUE(canonical.ok()) << text;
    ASSERT_TRUE(vectorized.ok()) << text;
    EXPECT_TRUE(canonical->SameTuples(*vectorized))
        << text << "\ncanonical: " << canonical->size()
        << " rows, vectorized: " << vectorized->size() << " rows";
  }
}

ConjunctiveQuery QueryOver(const DatabaseInstance& db, const std::string& text) {
  auto stmt = ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text;
  auto query =
      ConjunctiveQuery::FromRetrieve(db.schema(), std::get<RetrieveStmt>(*stmt));
  EXPECT_TRUE(query.ok()) << text << ": " << query.status();
  return *query;
}

// Distinct integers beyond 2^53 share a double image. The range scan
// binary-searches each chunk's ordered index, so it is exact only if the
// index orders them exactly; the canonical plan filters with Satisfies,
// which compares two Int64s exactly.
TEST(Vectorized, RangeScanIsExactBeyondTwoToThe53) {
  constexpr int64_t kBig = int64_t{1} << 53;
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "T", {{"K", ValueType::kInt64},
                                          {"V", ValueType::kInt64}})
                                    .value())
                  .ok());
  // Inserted out of order, with small keys around them.
  for (int64_t k : {kBig + 3, kBig - 3, kBig + 1, kBig, kBig + 2, kBig - 1,
                    kBig - 2, int64_t{7}, kBig + 4, int64_t{-5}}) {
    ASSERT_TRUE(db.Insert("T", Tuple({Value::Int64(k), Value::Int64(k % 10)}))
                    .ok());
  }
  const Relation& rel = **db.GetRelation("T");
  const Comparator ops[] = {Comparator::kLt, Comparator::kLe, Comparator::kGt,
                            Comparator::kGe, Comparator::kEq};
  for (int64_t bound = kBig - 2; bound <= kBig + 2; ++bound) {
    for (Comparator op : ops) {
      const std::string text = "retrieve (T.K, T.V) where T.K " +
                               std::string(ComparatorToString(op)) + " " +
                               std::to_string(bound);
      SCOPED_TRACE(text);
      const ConjunctivePredicate pred(
          {SelectionAtom::ColumnConst(0, op, Value::Int64(bound))});
      Relation selected(rel.schema());
      for (uint32_t id :
           VectorizedSelectRowIds(rel, rel.schema(), pred, nullptr)) {
        ASSERT_TRUE(selected.InsertUnchecked(rel.row(id)));
      }
      auto canonical = EvaluateCanonical(QueryOver(db, text), db);
      ASSERT_TRUE(canonical.ok());
      EXPECT_TRUE(selected.SameTuples(*canonical))
          << "vectorized " << selected.size() << " rows, canonical "
          << canonical->size();
      int expected = 0;
      for (const Tuple& row : rel) {
        expected += row.at(0).Satisfies(op, Value::Int64(bound)) ? 1 : 0;
      }
      EXPECT_EQ(canonical->size(), expected);
    }
  }
}

// The final projection skips the identity index exactly when it keeps
// every atom's identity (its key, or all columns of a keyless atom);
// either way the answer is the canonical plan's.
TEST(Vectorized, DistinctProjectionRuleIsExact) {
  DatabaseInstance db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "R", {{"A", ValueType::kInt64},
                                          {"B", ValueType::kInt64}})
                                    .value())
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema::Make(
                                    "K", {{"ID", ValueType::kInt64},
                                          {"X", ValueType::kInt64},
                                          {"Y", ValueType::kString}},
                                    {0})
                                    .value())
                  .ok());
  // Small enough for the canonical plan's full products.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.Insert("R", Tuple({Value::Int64(i % 20), Value::Int64(i)})).ok());
    ASSERT_TRUE(db.Insert("K", Tuple({Value::Int64(i), Value::Int64(i % 8),
                                      Value::String("y")}))
                    .ok());
  }
  struct Case {
    const char* text;
    bool distinct;
    int rows;  // distinct answer rows
  };
  const Case cases[] = {
      // Drops B of a keyless atom: 200 rows project onto 20 values.
      {"retrieve (R.A)", false, 20},
      {"retrieve (R.B, R.A)", true, 200},
      // Keeps the key of a keyed atom, not all its columns.
      {"retrieve (K.ID, K.X) where K.X < 2", true, 50},
      {"retrieve (K.X, K.Y)", false, 8},
      // A self-join keeping both atoms' columns.
      {"retrieve (R.A, R.B, R:2.A, R:2.B) where R.B = R:2.A", true, 200},
      // ... and one keeping only one side's: 400 combinations, 200 rows.
      {"retrieve (R.A, R.B) where R.A = R:2.A and R:2.B < 40", false, 200},
      {"retrieve (R.A, K.ID) where R.B = K.ID and K.X = 3", false, 25},
      {"retrieve (R.A, R.B, K.ID) where R.B = K.X", true, 200},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    const ConjunctiveQuery query = QueryOver(db, c.text);
    EXPECT_EQ(query.ProjectsDistinctRows(), c.distinct);
    auto canonical = EvaluateCanonical(query, db);
    EvalStats stats;
    auto vectorized = EvaluateVectorized(query, db, "ANSWER", &stats);
    ASSERT_TRUE(canonical.ok());
    ASSERT_TRUE(vectorized.ok());
    EXPECT_EQ(vectorized->size(), c.rows);
    EXPECT_EQ(stats.output_rows, c.rows);
    EXPECT_TRUE(canonical->SameTuples(*vectorized));
    EXPECT_TRUE(vectorized->SameTuples(*canonical));
    // The answer stays a set for later writers.
    EXPECT_FALSE(vectorized->InsertUnchecked(*vectorized->begin()));
  }
}

// ---------------------------------------------------------------------
// rows_scanned contract: identical accounting to the canonical plan.
// ---------------------------------------------------------------------

TEST(Vectorized, RowsScannedContractFullScan) {
  PaperDatabase fixture;
  // No indexable atom: all 3 + 6 rows are examined, same as canonical.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME");
  EvalStats stats;
  ASSERT_TRUE(EvaluateVectorized(query, fixture.db(), "ANSWER", &stats).ok());
  EXPECT_EQ(stats.rows_scanned, 9);
  EXPECT_GT(stats.batches_evaluated, 0);
}

TEST(Vectorized, RowsScannedContractIndexProbe) {
  PaperDatabase fixture;
  // Hash-index probe: the vectorized scan delegates to SelectRowIds and
  // charges exactly the 2 yielded rows.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (ASSIGNMENT.P_NO) where ASSIGNMENT.E_NAME = Brown");
  EvalStats stats;
  ASSERT_TRUE(EvaluateVectorized(query, fixture.db(), "ANSWER", &stats).ok());
  EXPECT_EQ(stats.rows_scanned, 2);
}

TEST(Vectorized, RowsScannedContractRangeScan) {
  PaperDatabase fixture;
  ConjunctiveQuery query = fixture.Query(
      "retrieve (PROJECT.NUMBER) where PROJECT.BUDGET > 300000");
  EvalStats stats;
  ASSERT_TRUE(EvaluateVectorized(query, fixture.db(), "ANSWER", &stats).ok());
  EXPECT_EQ(stats.rows_scanned, 1);
}

// ---------------------------------------------------------------------
// Fused mask application against the interpretive oracle: compiled
// Satisfies == RowSatisfies and FilterBatch == Satisfies per tuple, and
// ApplyMaskVectorized == ApplyMask (RowSatisfies per row) row for row,
// in delivery order.
// ---------------------------------------------------------------------

// The compiled per-row check must agree with the interpretive
// RowSatisfies on every mask tuple the paper scenarios produce.
TEST(MaskBatch, CompiledMaskAgreesWithRowSatisfies) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  for (const char* text : {
           "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
           "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
       }) {
    for (const char* user : {"Brown", "Klein"}) {
      ConjunctiveQuery query = fixture.Query(text);
      auto mask = authorizer.DeriveMask(user, query);
      ASSERT_TRUE(mask.ok()) << text;
      auto answer = EvaluateCanonical(query, fixture.db());
      ASSERT_TRUE(answer.ok()) << text;
      const CompiledMask compiled = CompiledMask::Compile(*mask);
      ASSERT_EQ(compiled.tuples.size(), mask->tuples().size());
      for (const Tuple& row : *answer) {
        for (size_t t = 0; t < compiled.tuples.size(); ++t) {
          EXPECT_EQ(compiled.tuples[t].Satisfies(row),
                    Authorizer::RowSatisfies(mask->tuples()[t], row))
              << text << " user=" << user << " tuple=" << t
              << " row=" << row.ToString();
        }
      }
    }
  }
}

TEST(MaskBatch, FilterBatchAgreesWithSatisfiesOnPaperMasks) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  for (const char* text : {
           "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
           "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
       }) {
    for (const char* user : {"Brown", "Klein"}) {
      ConjunctiveQuery query = fixture.Query(text);
      auto mask = authorizer.DeriveMask(user, query);
      ASSERT_TRUE(mask.ok()) << text;
      auto answer = EvaluateVectorized(query, fixture.db());
      ASSERT_TRUE(answer.ok()) << text;
      const CompiledMask compiled = CompiledMask::Compile(*mask);
      // The paper's answers fit one batch.
      ASSERT_LE(answer->size(), static_cast<int>(kColumnBatchRows)) << text;
      WholeRelationBatch whole(*answer);
      for (size_t t = 0; t < compiled.tuples.size(); ++t) {
        std::vector<uint32_t> sel;
        ResetSelection(&sel, static_cast<size_t>(answer->size()));
        compiled.tuples[t].FilterBatch(&whole.batch(), &sel);
        std::vector<uint32_t> want;
        for (RowId i = 0; i < static_cast<RowId>(answer->size()); ++i) {
          if (compiled.tuples[t].Satisfies(answer->row(i))) {
            want.push_back(i);
          }
        }
        EXPECT_EQ(sel, want)
            << text << " user=" << user << " tuple=" << t;
      }
    }
  }
}

TEST(MaskBatch, ApplyMaskVectorizedMatchesApplyMaskRowForRow) {
  PaperDatabase fixture;
  Authorizer authorizer = fixture.MakeAuthorizer();
  for (const char* text : {
           "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
           "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
           "retrieve (EMPLOYEE.NAME, PROJECT.NUMBER) "
           "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
           "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
       }) {
    for (const char* user : {"Brown", "Klein"}) {
      for (const bool drop : {true, false}) {
        ConjunctiveQuery query = fixture.Query(text);
        auto mask = authorizer.DeriveMask(user, query);
        ASSERT_TRUE(mask.ok()) << text;
        auto answer = EvaluateVectorized(query, fixture.db());
        ASSERT_TRUE(answer.ok()) << text;
        const Relation scalar = Authorizer::ApplyMask(*answer, *mask, drop);
        const CompiledMask compiled = CompiledMask::Compile(*mask);
        EvalStats stats;
        const Relation batched = Authorizer::ApplyMaskVectorized(
            *answer, compiled, drop, /*ctx=*/nullptr, &stats);
        ASSERT_EQ(scalar.size(), batched.size())
            << text << " user=" << user << " drop=" << drop;
        for (RowId i = 0; i < static_cast<RowId>(scalar.size()); ++i) {
          EXPECT_TRUE(scalar.row(i) == batched.row(i))
              << text << " user=" << user << " drop=" << drop << " row "
              << i;
        }
        if (!compiled.tuples.empty() && !answer->empty()) {
          EXPECT_GT(stats.mask_batch_applies, 0) << text;
        }
      }
    }
  }
}

// The canonical plan is an independent oracle: its retrieves mask
// interpretively and never build a CompiledMask, cached or not.
TEST(MaskBatch, CanonicalPlanNeverCompilesAMask) {
  PaperDatabase fixture;
  AuthzCache cache;
  Authorizer authorizer(&fixture.db(), &fixture.catalog(), &cache);
  for (const bool extended : {false, true}) {
    // Brown's grants cover this query only partially, so step 5 runs.
    ConjunctiveQuery query = fixture.Query(
        "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)");
    AuthorizationOptions canonical;
    canonical.use_optimized_data_plan = false;
    canonical.extended_masks = extended;
    AuthorizationOptions vectorized;
    vectorized.extended_masks = extended;
    const long long compiles_before = cache.Snapshot().mask_compiles;
    auto want = authorizer.Retrieve("Brown", query, canonical);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_FALSE(want->denied);
    ASSERT_FALSE(want->full_access);
    EXPECT_EQ(cache.Snapshot().mask_compiles, compiles_before)
        << "extended=" << extended;
    auto got = authorizer.Retrieve("Brown", query, vectorized);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(cache.Snapshot().mask_compiles, compiles_before + 1)
        << "extended=" << extended;
    EXPECT_EQ(want->answer.Materialize().SortedRows(),
              got->answer.Materialize().SortedRows())
        << "extended=" << extended;
  }
}

// ---------------------------------------------------------------------
// Step 5 over row ids: the one vectorized kernel, fed S's row ids,
// against the interpretive ApplyWideMask on the materialized raw answer
// — same rows, same delivery order — across batch windows, joins,
// self-joins, duplicate projections, NULL cells and both settings of
// drop_fully_masked_rows.
// ---------------------------------------------------------------------

// The paper's database grown past one batch: 1,300 more employees over
// 100 titles, every seventh salary NULL, each assigned to one project.
void GrowPaperDatabase(PaperDatabase* fixture) {
  const char* projects[] = {"bq-45", "sv-72", "vg-13"};
  for (int i = 0; i < 1300; ++i) {
    const std::string name = "E" + std::to_string(i);
    const Value salary =
        i % 7 == 0 ? Value::Null() : Value::Int64(20000 + (i * 37) % 15000);
    ASSERT_TRUE(fixture->db()
                    .Insert("EMPLOYEE",
                            Tuple({Value::String(name),
                                   Value::String("t" + std::to_string(i % 100)),
                                   salary}))
                    .ok());
    ASSERT_TRUE(fixture->db()
                    .Insert("ASSIGNMENT", Tuple({Value::String(name),
                                                 Value::String(projects[i % 3])}))
                    .ok());
  }
}

constexpr const char* kRowIdQueries[] = {
    // One atom, NULL salaries.
    "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
    // Not distinct: equal (title, salary) pairs, NULLs among them.
    "retrieve (EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
    // A three-atom join, and one whose projection is not distinct.
    "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY, PROJECT.NUMBER, "
    "PROJECT.BUDGET) where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
    "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
    "retrieve (EMPLOYEE.TITLE, PROJECT.NUMBER) "
    "where EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
    "and ASSIGNMENT.P_NO = PROJECT.NUMBER",
    // A self-join.
    "retrieve (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE) "
    "where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE",
};

TEST(RowIdMask, KernelMatchesApplyWideMaskRowForRow) {
  PaperDatabase fixture;
  GrowPaperDatabase(&fixture);
  Authorizer authorizer = fixture.MakeAuthorizer();
  int delivering_runs = 0;
  for (const char* text : kRowIdQueries) {
    ConjunctiveQuery query = fixture.Query(text);
    auto ids = EvaluateRowIds(query, fixture.db());
    ASSERT_TRUE(ids.ok()) << text;
    const RelationSchema schema = query.OutputSchema("ANSWER").value();
    const Relation raw = MaterializeRowIds(*ids, query.targets(), schema);
    std::vector<int> all(query.targets().size());
    std::iota(all.begin(), all.end(), 0);
    for (const char* user : {"Brown", "Klein"}) {
      auto mask = authorizer.DeriveMask(user, query);
      ASSERT_TRUE(mask.ok()) << text;
      const CompiledMask compiled = CompiledMask::Compile(*mask);
      for (const bool drop : {true, false}) {
        const Relation want =
            Authorizer::ApplyWideMask(raw, *mask, all, schema, drop);
        const Relation got =
            Authorizer::ApplyWideMaskVectorized(*ids, query.targets(),
                                                compiled, all, schema, drop)
                .Materialize();
        ASSERT_EQ(want.size(), got.size())
            << text << " user=" << user << " drop=" << drop;
        for (RowId i = 0; i < static_cast<RowId>(want.size()); ++i) {
          ASSERT_TRUE(want.row(i) == got.row(i))
              << text << " user=" << user << " drop=" << drop << " row "
              << i << ": " << want.row(i).ToString() << " vs "
              << got.row(i).ToString();
        }
        if (want.size() > static_cast<int>(kColumnBatchRows)) {
          ++delivering_runs;
        }
      }
    }
  }
  // Several runs deliver more than one batch of rows.
  EXPECT_GE(delivering_runs, 4);
}

// A keyless relation R (K, A, B) and views over it, granted to user u,
// for step-5 cases the paper's database does not reach.
class MaskScenario {
 public:
  MaskScenario() {
    VIEWAUTH_TEST_OK(db_.CreateRelation(
        RelationSchema::Make("R", {{"K", ValueType::kInt64},
                                   {"A", ValueType::kInt64},
                                   {"B", ValueType::kInt64}})
            .value()));
    catalog_ = std::make_unique<ViewCatalog>(&db_.schema());
  }

  void Insert(Value k, Value a, Value b) {
    VIEWAUTH_TEST_OK(
        db_.Insert("R", Tuple({std::move(k), std::move(a), std::move(b)})));
  }
  void Permit(const std::string& name, const std::string& view_text) {
    auto stmt = ParseStatement("view " + name + " " + view_text);
    VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
    VIEWAUTH_TEST_OK(catalog_->DefineView(std::get<ViewStmt>(*stmt)));
    VIEWAUTH_TEST_OK(catalog_->Permit(name, "u"));
  }

  // Runs the kernel over S's row ids for `retrieve_text`, checks its
  // rows against the interpretive ApplyWideMask's row for row, and
  // returns them. `mask_tuples` receives the mask's size.
  Relation KernelRows(const std::string& retrieve_text, bool drop,
                      int* mask_tuples = nullptr) {
    auto stmt = ParseStatement(retrieve_text);
    VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
    ConjunctiveQuery query =
        ConjunctiveQuery::FromRetrieve(db_.schema(),
                                       std::get<RetrieveStmt>(*stmt))
            .value();
    auto mask = Authorizer(&db_, catalog_.get()).DeriveMask("u", query);
    VIEWAUTH_CHECK(mask.ok()) << mask.status().ToString();
    if (mask_tuples != nullptr) *mask_tuples = mask->size();
    auto ids = EvaluateRowIds(query, db_);
    VIEWAUTH_CHECK(ids.ok()) << ids.status().ToString();
    const RelationSchema schema = query.OutputSchema("ANSWER").value();
    const Relation raw = MaterializeRowIds(*ids, query.targets(), schema);
    std::vector<int> all(query.targets().size());
    std::iota(all.begin(), all.end(), 0);
    const Relation want =
        Authorizer::ApplyWideMask(raw, *mask, all, schema, drop);
    const ColumnAnswer got = Authorizer::ApplyWideMaskVectorized(
        *ids, query.targets(), CompiledMask::Compile(*mask), all, schema,
        drop);
    // R's cells are all Int64 or NULL, so every delivered column stays
    // an integer image, and the comparison below reads those images.
    for (size_t c = 0; c < static_cast<size_t>(got.arity()); ++c) {
      EXPECT_TRUE(got.column(c).is_int()) << retrieve_text << " column " << c;
    }
    const Relation rows = got.Materialize();
    EXPECT_EQ(want.size(), rows.size()) << retrieve_text;
    for (RowId i = 0; i < static_cast<RowId>(
                              std::min(want.size(), rows.size()));
         ++i) {
      EXPECT_TRUE(want.row(i) == rows.row(i))
          << retrieve_text << " row " << i << ": " << want.row(i).ToString()
          << " vs " << rows.row(i).ToString();
    }
    return rows;
  }

 private:
  DatabaseInstance db_;
  std::unique_ptr<ViewCatalog> catalog_;
};

TEST(RowIdMask, RowAcceptedByTwoFullPatternTuplesIsDeliveredOnce) {
  MaskScenario scenario;
  for (int k = 0; k < 2000; ++k) {
    scenario.Insert(Value::Int64(k), Value::Int64(k % 10), Value::Int64(0));
  }
  // Both tuples project every delivered column and accept A in 3..5.
  scenario.Permit("LOW", "(R.K, R.A) where R.A <= 5");
  scenario.Permit("HIGH", "(R.K, R.A) where R.A >= 3");
  int mask_tuples = 0;
  const Relation rows =
      scenario.KernelRows("retrieve (R.K, R.A)", true, &mask_tuples);
  EXPECT_EQ(mask_tuples, 2);
  EXPECT_EQ(rows.size(), 2000);
}

TEST(RowIdMask, RowsEqualOnAPartialPatternAreDeliveredOnce) {
  MaskScenario scenario;
  for (int k = 0; k < 2000; ++k) {
    scenario.Insert(Value::Int64(k), Value::Int64(k % 7), Value::Int64(k % 3));
  }
  // ONLY_A withholds K, so the rows sharing an A collapse to one; the
  // full tuple delivers its rows whole.
  scenario.Permit("ONLY_A", "(R.A)");
  scenario.Permit("SOME", "(R.K, R.A) where R.K < 40");
  for (const bool drop : {true, false}) {
    const Relation rows = scenario.KernelRows("retrieve (R.K, R.A)", drop);
    EXPECT_EQ(rows.size(), 7 + 40) << "drop=" << drop;
  }
}

TEST(RowIdMask, TuplesOfOnePatternDeliverARowOnce) {
  MaskScenario scenario;
  for (int k = 0; k < 3000; ++k) {
    scenario.Insert(Value::Int64(k), Value::Int64(k % 50),
                    Value::Int64(k % 7));
  }
  // Three tuples withhold K and grant A and B, and most rows are
  // accepted by more than one of them; between them sits a tuple of
  // another pattern (K and A). Each row is offered once per pattern, and
  // the delivered rows and their order are the interpretive plan's.
  scenario.Permit("LOW", "(R.A, R.B) where R.A <= 30");
  scenario.Permit("KEYS", "(R.K, R.A) where R.K < 100");
  scenario.Permit("HIGH", "(R.A, R.B) where R.A >= 10");
  scenario.Permit("SEVENS", "(R.A, R.B) where R.B <= 3");
  for (const bool drop : {true, false}) {
    int mask_tuples = 0;
    const Relation rows =
        scenario.KernelRows("retrieve (R.K, R.A, R.B)", drop, &mask_tuples);
    EXPECT_EQ(mask_tuples, 4);
    // 350 distinct (A, B) pairs, each with K withheld, and the first
    // 100 rows with B withheld.
    EXPECT_EQ(rows.size(), 350 + 100) << "drop=" << drop;
  }
}

TEST(RowIdMask, WithheldCellEqualsAGenuineNull) {
  MaskScenario scenario;
  scenario.Insert(Value::Int64(1), Value::Int64(5), Value::Int64(0));
  scenario.Insert(Value::Null(), Value::Int64(5), Value::Int64(0));
  // K_IS_1 delivers (1, 5) with K withheld, FIVES delivers (NULL, 5)
  // whole: the two are one row.
  scenario.Permit("K_IS_1", "(R.A) where R.K = 1");
  scenario.Permit("FIVES", "(R.K, R.A) where R.A = 5");
  int mask_tuples = 0;
  const Relation rows =
      scenario.KernelRows("retrieve (R.K, R.A)", true, &mask_tuples);
  EXPECT_EQ(mask_tuples, 2);
  ASSERT_EQ(rows.size(), 2);
  EXPECT_TRUE(rows.Contains(Tuple({Value::Null(), Value::Int64(5)})));
  EXPECT_TRUE(rows.Contains(Tuple({Value::Int64(1), Value::Int64(5)})));
}

TEST(RowIdMask, FullyWithheldRowsAreKeptOnce) {
  MaskScenario scenario;
  for (int k = 0; k < 3000; ++k) {
    scenario.Insert(Value::Int64(k), Value::Int64(k % 100), Value::Int64(0));
  }
  // A full-pattern mask, but rows it rejects are kept all withheld: the
  // 2,970 of them collapse to one all-NULL row.
  scenario.Permit("LOW", "(R.K, R.A) where R.A = 0");
  const Relation rows = scenario.KernelRows("retrieve (R.K, R.A)", false);
  EXPECT_EQ(rows.size(), 30 + 1);
  EXPECT_TRUE(rows.Contains(Tuple({Value::Null(), Value::Null()})));
}

TEST(RowIdMask, DuplicateProjectionsAreDeliveredOnce) {
  PaperDatabase fixture;
  GrowPaperDatabase(&fixture);
  // 1,303 employees, 103 titles.
  ConjunctiveQuery query = fixture.Query("retrieve (EMPLOYEE.TITLE)");
  ASSERT_FALSE(query.ProjectsDistinctRows());
  auto ids = EvaluateRowIds(query, fixture.db());
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 103u);
  auto canonical = EvaluateCanonical(query, fixture.db());
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(static_cast<int>(ids->size()), canonical->size());

  // Through the authorizer: the raw answer counts each title once, and
  // materializes to exactly EvaluateVectorized's rows, in order.
  Authorizer authorizer = fixture.MakeAuthorizer();
  auto result = authorizer.Retrieve("Klein", query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->raw_answer.size(), 103);
  const Relation raw = result->raw_answer.Materialize();
  auto vectorized = EvaluateVectorized(query, fixture.db());
  ASSERT_TRUE(vectorized.ok());
  ASSERT_EQ(raw.size(), vectorized->size());
  for (RowId i = 0; i < static_cast<RowId>(raw.size()); ++i) {
    EXPECT_TRUE(raw.row(i) == vectorized->row(i)) << "row " << i;
  }
  EXPECT_EQ(raw.SortedRows(), canonical->SortedRows());
}

TEST(RowIdMask, GovernorTripMidKernelDeliversNothing) {
  PaperDatabase fixture;
  GrowPaperDatabase(&fixture);
  AuthzCache cache;
  Authorizer authorizer(&fixture.db(), &fixture.catalog(), &cache);
  // Brown's grants cover this query partially, so step 5 runs the
  // kernel over all 1,303 rows.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)");
  auto warm = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_FALSE(warm->full_access);
  ASSERT_FALSE(warm->denied);

  // The budget covers S's scan, and not the kernel's first batch.
  ExecContext s_only(ExecLimits{/*deadline_ms=*/0, /*max_rows=*/1LL << 40,
                                /*max_bytes=*/0});
  ASSERT_TRUE(EvaluateRowIds(query, fixture.db(), nullptr, &s_only).ok());
  const long long s_rows = s_only.rows_charged();
  ASSERT_GT(s_rows, 0);
  ExecContext ctx(ExecLimits{/*deadline_ms=*/0, /*max_rows=*/s_rows + 500,
                             /*max_bytes=*/0});
  auto tripped = authorizer.Retrieve("Brown", query, {}, &ctx);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.rows_charged(), s_rows);  // S finished; step 5 tripped

  // The kernel charges ApproxTupleBytes of the delivered columns per
  // delivered row: a byte budget of exactly that passes, one byte less
  // trips, and so does a budget that runs out after the first batch.
  auto ids = EvaluateRowIds(query, fixture.db());
  ASSERT_TRUE(ids.ok());
  const RelationSchema schema = query.OutputSchema("ANSWER").value();
  const std::vector<int> all = {0, 1, 2};
  const CompiledMask& compiled = *warm->decision->compiled;
  const ColumnAnswer whole = Authorizer::ApplyWideMaskVectorized(
      *ids, query.targets(), compiled, all, schema, true);
  ASSERT_GT(whole.size(), 1);
  const long long charge = whole.size() * ApproxTupleBytes(3);
  for (const long long budget : {charge, charge - 1, charge / 4}) {
    ExecContext bytes_only(ExecLimits{/*deadline_ms=*/0, /*max_rows=*/0,
                                      /*max_bytes=*/budget});
    const ColumnAnswer got = Authorizer::ApplyWideMaskVectorized(
        *ids, query.targets(), compiled, all, schema, true, &bytes_only);
    EXPECT_EQ(bytes_only.ok(), budget == charge) << "budget " << budget;
    if (budget == charge) {
      EXPECT_EQ(got.size(), whole.size());
    }
  }
}

// ---------------------------------------------------------------------
// Governance: the vectorized plan ticks the shared ExecContext once per
// batch, still honors budgets, and a governed abort publishes no batch
// counters (the cache txn is discarded).
// ---------------------------------------------------------------------

TEST(VectorizedGovernance, RowBudgetAbortsMidScan) {
  DatabaseInstance db;
  // A unique ID column keeps all 3000 rows distinct (relations are
  // sets).
  ASSERT_TRUE(db.CreateRelation(
                    RelationSchema::Make("R", {{"ID", ValueType::kInt64},
                                               {"A", ValueType::kInt64},
                                               {"B", ValueType::kInt64}})
                        .value())
                  .ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db.Insert("R", Tuple({Value::Int64(i), Value::Int64(i % 7),
                                      Value::Int64(i % 5)}))
                    .ok());
  }
  auto stmt = ParseStatement("retrieve (R.A) where R.A = R.B");
  ASSERT_TRUE(stmt.ok());
  auto query = ConjunctiveQuery::FromRetrieve(db.schema(),
                                              std::get<RetrieveStmt>(*stmt));
  ASSERT_TRUE(query.ok());

  ExecContext ctx(ExecLimits{/*deadline_ms=*/0, /*max_rows=*/1500,
                             /*max_bytes=*/0});
  EvalStats stats;
  auto result = EvaluateVectorized(*query, db, "ANSWER", &stats, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // Per-batch ticking: the second 1024-row batch trips the budget, so
  // the plan never charges the third.
  EXPECT_LE(ctx.rows_charged(), 2 * 1024);
  EXPECT_LE(stats.rows_scanned, 2 * 1024);
}

TEST(VectorizedGovernance, ZeroBudgetRetrieveIsSideEffectFree) {
  PaperDatabase fixture;
  AuthzCache cache;
  Authorizer authorizer(&fixture.db(), &fixture.catalog(), &cache);
  // Brown's grants (SAE + EST) cover this query only partially, so the
  // successful retrieve must run real mask kernels.
  ConjunctiveQuery query = fixture.Query(
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)");
  AuthorizationOptions options;  // defaults: vectorized plan
  options.max_rows = 1;
  auto aborted = authorizer.Retrieve("Brown", query, options);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
  const AuthzStats after_abort = cache.Snapshot();
  EXPECT_EQ(after_abort.budget_exceeded, 1);
  // The aborted retrieve's staged counters were discarded wholesale.
  EXPECT_EQ(after_abort.batches_evaluated, 0);
  EXPECT_EQ(after_abort.mask_batch_applies, 0);

  // The same retrieve without a budget succeeds and publishes the batch
  // counters through the cache txn.
  auto ok = authorizer.Retrieve("Brown", query);
  ASSERT_TRUE(ok.ok()) << ok.status();
  const AuthzStats after_ok = cache.Snapshot();
  EXPECT_GT(after_ok.batches_evaluated, 0);
  EXPECT_GT(after_ok.mask_batch_applies, 0);
}

}  // namespace
}  // namespace viewauth
