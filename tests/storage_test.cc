// Unit tests for schemas, tuples, relations and database instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "schema/schema.h"
#include "storage/relation.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

RelationSchema MakeEmployeeSchema() {
  return RelationSchema::Make("EMPLOYEE",
                              {{"NAME", ValueType::kString},
                               {"TITLE", ValueType::kString},
                               {"SALARY", ValueType::kInt64}},
                              {0})
      .value();
}

TEST(RelationSchema, MakeValidations) {
  EXPECT_FALSE(RelationSchema::Make("", {{"A", ValueType::kInt64}}).ok());
  EXPECT_FALSE(RelationSchema::Make("R", {}).ok());
  EXPECT_FALSE(RelationSchema::Make("R", {{"A", ValueType::kInt64},
                                          {"A", ValueType::kString}})
                   .ok());
  EXPECT_FALSE(
      RelationSchema::Make("R", {{"", ValueType::kInt64}}).ok());
  EXPECT_FALSE(
      RelationSchema::Make("R", {{"A", ValueType::kInt64}}, {1}).ok());
  EXPECT_FALSE(
      RelationSchema::Make("R", {{"A", ValueType::kInt64}}, {0, 0}).ok());
  EXPECT_TRUE(
      RelationSchema::Make("R", {{"A", ValueType::kInt64}}, {0}).ok());
}

TEST(RelationSchema, Accessors) {
  RelationSchema schema = MakeEmployeeSchema();
  EXPECT_EQ(schema.arity(), 3);
  EXPECT_EQ(schema.AttributeIndex("TITLE"), 1);
  EXPECT_EQ(schema.AttributeIndex("title"), -1);  // case-sensitive
  EXPECT_TRUE(schema.has_key());
  EXPECT_TRUE(schema.IsKeyAttribute(0));
  EXPECT_FALSE(schema.IsKeyAttribute(2));
  EXPECT_EQ(schema.ToString(), "EMPLOYEE = (NAME, TITLE, SALARY)");
}

TEST(DatabaseSchema, AddDropGet) {
  DatabaseSchema db;
  EXPECT_TRUE(db.AddRelation(MakeEmployeeSchema()).ok());
  EXPECT_TRUE(db.AddRelation(MakeEmployeeSchema()).IsAlreadyExists());
  EXPECT_TRUE(db.HasRelation("EMPLOYEE"));
  auto fetched = db.GetRelation("EMPLOYEE");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->name(), "EMPLOYEE");
  EXPECT_TRUE(db.GetRelation("NOPE").status().IsNotFound());
  EXPECT_TRUE(db.DropRelation("EMPLOYEE").ok());
  EXPECT_FALSE(db.HasRelation("EMPLOYEE"));
  EXPECT_TRUE(db.DropRelation("EMPLOYEE").IsNotFound());
}

TEST(Tuple, ConcatAndProject) {
  Tuple a({Value::Int64(1), Value::String("x")});
  Tuple b({Value::Int64(2)});
  Tuple c = Tuple::Concat(a, b);
  EXPECT_EQ(c.arity(), 3);
  EXPECT_EQ(c.at(2), Value::Int64(2));
  Tuple p = c.Project({2, 0});
  EXPECT_EQ(p, Tuple({Value::Int64(2), Value::Int64(1)}));
  // Duplicating columns is allowed.
  EXPECT_EQ(c.Project({0, 0}).arity(), 2);
}

TEST(Tuple, OrderingAndHash) {
  Tuple a({Value::Int64(1), Value::Int64(2)});
  Tuple b({Value::Int64(1), Value::Int64(3)});
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(Tuple({Value::Int64(1)}) < a);  // shorter first on prefix
  EXPECT_EQ(a.Hash(), Tuple({Value::Int64(1), Value::Int64(2)}).Hash());
}

// The ids IndexOn(column) yields for `value`.
std::vector<RowId> Probe(const Relation& rel, int column, const Value& value) {
  std::vector<RowId> ids;
  rel.IndexOn(column).ForEach(value, [&ids](RowId id) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

TEST(Relation, SetSemantics) {
  Relation rel(MakeEmployeeSchema());
  Tuple t({Value::String("Jones"), Value::String("manager"),
           Value::Int64(26000)});
  EXPECT_TRUE(rel.Insert(t).ok());
  EXPECT_TRUE(rel.Insert(t).ok());  // duplicate absorbed
  EXPECT_EQ(rel.size(), 1);
  EXPECT_TRUE(rel.Contains(t));
  EXPECT_TRUE(rel.Erase(t));
  EXPECT_FALSE(rel.Erase(t));
  EXPECT_TRUE(rel.empty());
}

TEST(Relation, SchemaValidation) {
  Relation rel(MakeEmployeeSchema());
  // Wrong arity.
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("x")})).IsSchemaMismatch());
  // Wrong type.
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("x"), Value::Int64(1),
                                Value::Int64(1)}))
                  .IsSchemaMismatch());
  // NULLs are allowed anywhere (masked cells).
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("x"), Value::Null(),
                                Value::Null()}))
                  .ok());
  // int64 accepted for double columns.
  Relation d(RelationSchema::Make("D", {{"X", ValueType::kDouble}}).value());
  EXPECT_TRUE(d.Insert(Tuple({Value::Int64(3)})).ok());
}

TEST(Relation, PrimaryKeyViolation) {
  Relation rel(MakeEmployeeSchema());
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("Jones"),
                                Value::String("manager"),
                                Value::Int64(26000)}))
                  .ok());
  // Same key, different payload: rejected.
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("Jones"),
                                Value::String("engineer"),
                                Value::Int64(30000)}))
                  .IsSchemaMismatch());
  // Exactly identical tuple: absorbed, no error.
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("Jones"),
                                Value::String("manager"),
                                Value::Int64(26000)}))
                  .ok());
}

TEST(Relation, SameTuplesAndSortedRows) {
  Relation a(MakeEmployeeSchema());
  Relation b(MakeEmployeeSchema());
  Tuple t1({Value::String("A"), Value::String("t"), Value::Int64(1)});
  Tuple t2({Value::String("B"), Value::String("t"), Value::Int64(2)});
  ASSERT_TRUE(a.Insert(t1).ok());
  ASSERT_TRUE(a.Insert(t2).ok());
  ASSERT_TRUE(b.Insert(t2).ok());
  EXPECT_FALSE(a.SameTuples(b));
  ASSERT_TRUE(b.Insert(t1).ok());
  EXPECT_TRUE(a.SameTuples(b));
  std::vector<Tuple> sorted = b.SortedRows();
  EXPECT_EQ(sorted.front(), t1);
  EXPECT_EQ(sorted.back(), t2);
}

TEST(Relation, ColumnIndexLookup) {
  Relation rel(MakeEmployeeSchema());
  ASSERT_TRUE(rel.Insert(Tuple({Value::String("Jones"),
                                Value::String("manager"),
                                Value::Int64(26000)}))
                  .ok());
  ASSERT_TRUE(rel.Insert(Tuple({Value::String("Smith"),
                                Value::String("manager"),
                                Value::Int64(22000)}))
                  .ok());
  ASSERT_TRUE(rel.Insert(Tuple({Value::String("Brown"),
                                Value::String("engineer"),
                                Value::Int64(32000)}))
                  .ok());
  const Relation::ColumnIndex by_title = rel.IndexOn(1);
  EXPECT_EQ(by_title.count(Value::String("manager")), 2u);
  EXPECT_EQ(by_title.count(Value::String("engineer")), 1u);
  EXPECT_EQ(by_title.count(Value::String("nobody")), 0u);
  // Row ids point back into the relation, in increasing order.
  EXPECT_EQ(Probe(rel, 1, Value::String("engineer")), std::vector<RowId>{2});
  EXPECT_EQ(rel.row(2).at(0), Value::String("Brown"));
  EXPECT_EQ(Probe(rel, 1, Value::String("manager")),
            (std::vector<RowId>{0, 1}));
}

TEST(Relation, ColumnIndexInvalidatesOnMutation) {
  Relation rel(MakeEmployeeSchema());
  Tuple jones({Value::String("Jones"), Value::String("manager"),
               Value::Int64(26000)});
  Tuple smith({Value::String("Smith"), Value::String("manager"),
               Value::Int64(22000)});
  ASSERT_TRUE(rel.Insert(jones).ok());
  EXPECT_EQ(rel.IndexOn(0).count(Value::String("Jones")), 1u);
  EXPECT_EQ(rel.ColumnOn(0, 2).size(), 1u);
  ASSERT_TRUE(rel.Erase(jones));
  EXPECT_EQ(rel.IndexOn(0).count(Value::String("Jones")), 0u);
  ASSERT_TRUE(rel.Insert(jones).ok());
  EXPECT_EQ(rel.IndexOn(0).count(Value::String("Jones")), 1u);
  // A built index is extended by inserts, and the tail chunk's images
  // are rebuilt after them.
  EXPECT_EQ(rel.IndexOn(1).count(Value::String("manager")), 1u);
  ASSERT_TRUE(rel.Insert(smith).ok());
  EXPECT_EQ(Probe(rel, 1, Value::String("manager")),
            (std::vector<RowId>{0, 1}));
  EXPECT_EQ(Probe(rel, 0, Value::String("Smith")), std::vector<RowId>{1});
  ASSERT_EQ(rel.ColumnOn(0, 2).size(), 2u);
  EXPECT_EQ(rel.ColumnOn(0, 2).value(1), Value::Int64(22000));
  EXPECT_EQ(rel.OrderedIndexOn(0, 2).front().first, Value::Int64(22000));
  rel.Clear();
  EXPECT_EQ(rel.IndexOn(0).count(Value::String("Jones")), 0u);
  EXPECT_EQ(rel.num_chunks(), 0);
}

TEST(Relation, OrderedIndex) {
  Relation rel(MakeEmployeeSchema());
  for (auto [name, salary] : {std::pair{"Jones", 26000},
                              {"Smith", 22000},
                              {"Brown", 32000}}) {
    ASSERT_TRUE(rel.Insert(Tuple({Value::String(name), Value::String("t"),
                                  Value::Int64(salary)}))
                    .ok());
  }
  ASSERT_EQ(rel.num_chunks(), 1);
  const OrderedIndex& by_salary = rel.OrderedIndexOn(0, 2);
  ASSERT_EQ(by_salary.size(), 3u);
  EXPECT_EQ(by_salary[0].first, Value::Int64(22000));
  EXPECT_EQ(by_salary[0].second, 1u);  // offset of Smith in the chunk
  EXPECT_EQ(by_salary[2].first, Value::Int64(32000));
  // Binary search finds the >= 26000 suffix.
  auto begin = std::lower_bound(
      by_salary.begin(), by_salary.end(), Value::Int64(26000),
      [](const std::pair<Value, uint32_t>& e, const Value& v) {
        return e.first < v;
      });
  EXPECT_EQ(by_salary.end() - begin, 2);
  // Mutations of the (unsealed) chunk rebuild it.
  ASSERT_TRUE(rel.Erase(Tuple({Value::String("Brown"), Value::String("t"),
                               Value::Int64(32000)})));
  EXPECT_EQ(rel.OrderedIndexOn(0, 2).size(), 2u);
}

// A keyed EMPLOYEE row whose every cell derives from `i`.
Tuple EmployeeRow(int i, int salary_offset = 0) {
  return Tuple({Value::String("e" + std::to_string(i)),
                Value::String("t" + std::to_string(i % 7)),
                Value::Int64(i % 1000 + salary_offset)});
}

Relation EmployeeRelation(int rows) {
  Relation rel(MakeEmployeeSchema());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(rel.Insert(EmployeeRow(i)).ok());
  }
  return rel;
}

TEST(Relation, ChunkBoundaries) {
  for (int rows : {1023, 1024, 1025}) {
    SCOPED_TRACE(rows);
    const Relation rel = EmployeeRelation(rows);
    ASSERT_EQ(rel.size(), rows);
    ASSERT_EQ(rel.num_chunks(), (rows + 1023) / 1024);
    EXPECT_EQ(rel.chunk(0).size(), std::min(rows, 1024));
    const int last = rel.num_chunks() - 1;
    EXPECT_EQ(static_cast<int>(rel.chunk(last).size()), rows - last * 1024);
    // Ids are chunk << 10 | offset, in insertion order.
    int visited = 0;
    for (const Tuple& row : rel) {
      EXPECT_EQ(row, EmployeeRow(visited));
      ++visited;
    }
    EXPECT_EQ(visited, rows);
    const RowId last_id = static_cast<RowId>(rows - 1);
    EXPECT_EQ(rel.row(last_id), EmployeeRow(rows - 1));
    EXPECT_EQ(&rel.row(last_id), &rel.chunk(last)[last_id & 1023]);
    // Every read structure covers the last row.
    EXPECT_EQ(Probe(rel, 0, EmployeeRow(rows - 1).at(0)),
              std::vector<RowId>{last_id});
    EXPECT_EQ(rel.ColumnOn(last, 0).size(), rel.chunk(last).size());
    EXPECT_EQ(rel.ColumnOn(last, 0).value(rel.chunk(last).size() - 1),
              EmployeeRow(rows - 1).at(0));
    EXPECT_EQ(rel.OrderedIndexOn(last, 2).size(), rel.chunk(last).size());
    EXPECT_TRUE(rel.Contains(EmployeeRow(rows - 1)));
    EXPECT_FALSE(rel.Contains(EmployeeRow(rows)));
  }
}

TEST(Relation, CopyIsIsolatedAndSharesAllButTheWrittenChunks) {
  constexpr int kRows = 11 * 1024 + 300;  // 12 chunks
  const Relation original = EmployeeRelation(kRows);
  // Build every read structure on the original before copying.
  const std::vector<RowId> probe_before =
      Probe(original, 1, Value::String("t3"));
  std::vector<OrderedIndex> ordered_before;
  std::vector<std::vector<Value>> column_before;
  for (int c = 0; c < original.num_chunks(); ++c) {
    ordered_before.push_back(original.OrderedIndexOn(c, 2));
    const ColumnVector& column = original.ColumnOn(c, 0);
    std::vector<Value> cells;
    for (size_t i = 0; i < column.size(); ++i) cells.push_back(column.value(i));
    column_before.push_back(std::move(cells));
  }

  Relation copy = original;
  ASSERT_EQ(copy.num_chunks(), 12);
  for (int c = 0; c < copy.num_chunks(); ++c) {
    EXPECT_TRUE(copy.SharesChunkWith(original, c)) << c;
  }

  ASSERT_TRUE(copy.Insert(EmployeeRow(kRows)).ok());
  // The copy's key check still sees rows of sealed chunks.
  EXPECT_TRUE(copy.Insert(EmployeeRow(5, /*salary_offset=*/1))
                  .IsSchemaMismatch());
  for (int c = 0; c + 1 < copy.num_chunks(); ++c) {
    EXPECT_TRUE(copy.SharesChunkWith(original, c)) << c;
  }
  // Erasing a row of chunk 5 rebuilds the copy from chunk 5 onward.
  ASSERT_TRUE(copy.Erase(EmployeeRow(5 * 1024 + 7)));
  for (int c = 0; c < copy.num_chunks(); ++c) {
    EXPECT_EQ(copy.SharesChunkWith(original, c), c < 5) << c;
  }
  ASSERT_EQ(copy.size(), kRows);
  EXPECT_EQ(copy.row(5 * 1024 + 7), EmployeeRow(5 * 1024 + 8));
  EXPECT_EQ(copy.row(kRows - 1), EmployeeRow(kRows));
  EXPECT_TRUE(copy.Contains(EmployeeRow(kRows)));
  EXPECT_FALSE(copy.Contains(EmployeeRow(5 * 1024 + 7)));

  // The original is untouched: rows, IndexOn, OrderedIndexOn, ColumnOn.
  ASSERT_EQ(original.size(), kRows);
  for (RowId id = 0; id < static_cast<RowId>(kRows); ++id) {
    ASSERT_EQ(original.row(id), EmployeeRow(static_cast<int>(id)));
  }
  EXPECT_FALSE(original.Contains(EmployeeRow(kRows)));
  EXPECT_EQ(Probe(original, 1, Value::String("t3")), probe_before);
  EXPECT_EQ(Probe(original, 0, EmployeeRow(kRows).at(0)),
            std::vector<RowId>{});
  for (int c = 0; c < original.num_chunks(); ++c) {
    EXPECT_EQ(original.OrderedIndexOn(c, 2), ordered_before[c]) << c;
    const ColumnVector& column = original.ColumnOn(c, 0);
    ASSERT_EQ(column.size(), column_before[c].size()) << c;
    for (size_t i = 0; i < column.size(); ++i) {
      EXPECT_EQ(column.value(i), column_before[c][i]) << c << ":" << i;
    }
  }
}

TEST(Relation, EraseInMiddleChunkThenProbe) {
  Relation rel = EmployeeRelation(3000);
  const Relation::ColumnIndex by_name = rel.IndexOn(0);
  EXPECT_EQ(by_name.count(EmployeeRow(1500).at(0)), 1u);
  ASSERT_TRUE(rel.Erase(EmployeeRow(1500)));
  ASSERT_EQ(rel.size(), 2999);
  EXPECT_TRUE(Probe(rel, 0, EmployeeRow(1500).at(0)).empty());
  // Rows after the erased one moved up one id; the index followed them.
  EXPECT_EQ(Probe(rel, 0, EmployeeRow(1499).at(0)), std::vector<RowId>{1499});
  EXPECT_EQ(Probe(rel, 0, EmployeeRow(1501).at(0)), std::vector<RowId>{1500});
  EXPECT_EQ(Probe(rel, 0, EmployeeRow(2999).at(0)), std::vector<RowId>{2998});
  for (int i : {0, 1023, 1024, 1501, 2048, 2999}) {
    const std::vector<RowId> ids = Probe(rel, 0, EmployeeRow(i).at(0));
    ASSERT_EQ(ids.size(), 1u) << i;
    EXPECT_EQ(rel.row(ids[0]), EmployeeRow(i));
  }
  // The key check still covers every chunk.
  EXPECT_TRUE(rel.Insert(EmployeeRow(2500, 1)).IsSchemaMismatch());
  EXPECT_TRUE(rel.Insert(EmployeeRow(1500)).ok());
  EXPECT_EQ(Probe(rel, 0, EmployeeRow(1500).at(0)), std::vector<RowId>{2999});
}

TEST(Relation, DuplicateKeyAcrossSealedChunkAndTail) {
  Relation rel = EmployeeRelation(1500);
  ASSERT_EQ(rel.num_chunks(), 2);
  // Row 5 sits in the sealed first chunk; the probe row would go to the
  // tail.
  EXPECT_TRUE(rel.Insert(EmployeeRow(5, 1)).IsSchemaMismatch());
  EXPECT_TRUE(rel.Insert(EmployeeRow(5)).ok());  // identical: absorbed
  EXPECT_EQ(rel.size(), 1500);
  // The same holds in a copy sharing both chunks.
  Relation copy = rel;
  EXPECT_TRUE(copy.Insert(EmployeeRow(5, 1)).IsSchemaMismatch());
  EXPECT_TRUE(copy.Insert(EmployeeRow(1499, 1)).IsSchemaMismatch());
  EXPECT_EQ(copy.size(), 1500);
}

TEST(Relation, ConcurrentCopiesAppendToASharedTail) {
  // Every copy shares the base's tail chunk, which has free slots: the
  // copies race to claim the same slot while readers scan the base.
  constexpr int kBase = 1024 + 100;
  constexpr int kWriters = 4;
  constexpr int kAppends = 600;
  const Relation base = EmployeeRelation(kBase);
  std::vector<Relation> copies(kWriters, base);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&copy = copies[static_cast<size_t>(w)], w] {
      for (int i = 0; i < kAppends; ++i) {
        EXPECT_TRUE(copy.Insert(EmployeeRow(1'000'000 * (w + 1) + i)).ok());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&base] {
      for (int pass = 0; pass < 20; ++pass) {
        int seen = 0;
        for (const Tuple& row : base) seen += row.arity();
        EXPECT_EQ(seen, 3 * kBase);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(base.size(), kBase);
  EXPECT_FALSE(base.Contains(EmployeeRow(1'000'000)));
  for (int w = 0; w < kWriters; ++w) {
    const Relation& copy = copies[static_cast<size_t>(w)];
    ASSERT_EQ(copy.size(), kBase + kAppends) << w;
    EXPECT_TRUE(copy.SharesChunkWith(base, 0)) << w;
    for (int i = 0; i < kBase; ++i) {
      ASSERT_EQ(copy.row(static_cast<RowId>(i)), EmployeeRow(i)) << w;
    }
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_EQ(copy.row(static_cast<RowId>(kBase + i)),
                EmployeeRow(1'000'000 * (w + 1) + i))
          << w;
    }
  }
}

TEST(Relation, KeyedLoadIsLinear) {
  constexpr int kRows = 100'000;
  const auto start = std::chrono::steady_clock::now();
  Relation rel(MakeEmployeeSchema());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(rel.Insert(EmployeeRow(i)).ok());
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(rel.size(), kRows);
  // A scan per insert (the quadratic load) takes minutes here.
  EXPECT_LT(seconds, 1.0 * testing_util::kSanitizerSlowdown);
}

// A keyless two-column row; distinct for distinct i.
Tuple PairRow(int i) { return Tuple({Value::Int64(i), Value::Int64(i % 7)}); }

Relation PairRelation() {
  return Relation(RelationSchema::Make("P", {{"A", ValueType::kInt64},
                                             {"B", ValueType::kInt64}})
                      .value());
}

TEST(Relation, AppendDistinctIsCaughtUpByEveryProbe) {
  // Past kScanRows and across chunk boundaries, so the identity index
  // must cover rows it never saw appended.
  constexpr int kRows = 2 * 1024 + 77;
  Relation rel = PairRelation();
  for (int i = 0; i < kRows; ++i) rel.AppendDistinct(PairRow(i));
  ASSERT_EQ(rel.size(), kRows);

  // A copy taken before any probe catches up on its own.
  const Relation copy = rel;
  for (int i = 0; i < kRows; i += 97) EXPECT_TRUE(copy.Contains(PairRow(i)));
  EXPECT_FALSE(copy.Contains(PairRow(kRows)));

  // Insert of a duplicate is absorbed; a new row lands once.
  ASSERT_TRUE(rel.Insert(PairRow(kRows - 1)).ok());
  EXPECT_EQ(rel.size(), kRows);
  ASSERT_TRUE(rel.Insert(PairRow(kRows)).ok());
  EXPECT_EQ(rel.size(), kRows + 1);
  // More distinct rows, then the unchecked path sees all of them.
  rel.AppendDistinct(PairRow(kRows + 1));
  EXPECT_FALSE(rel.InsertUnchecked(PairRow(kRows + 1)));
  EXPECT_FALSE(rel.InsertUnchecked(PairRow(0)));
  EXPECT_TRUE(rel.InsertUnchecked(PairRow(kRows + 2)));
  EXPECT_EQ(rel.size(), kRows + 3);
  for (int i = 0; i < kRows + 3; ++i) {
    ASSERT_TRUE(rel.Contains(PairRow(i))) << i;
  }
  EXPECT_FALSE(rel.Contains(PairRow(kRows + 3)));

  // Erase in the first chunk, then append past the gap again.
  ASSERT_TRUE(rel.Erase(PairRow(5)));
  EXPECT_FALSE(rel.Erase(PairRow(5)));
  EXPECT_FALSE(rel.Contains(PairRow(5)));
  rel.AppendDistinct(PairRow(5));
  EXPECT_TRUE(rel.Contains(PairRow(5)));
  EXPECT_EQ(rel.size(), kRows + 3);

  // SameTuples against the same set built by Insert, in another order.
  Relation inserted = PairRelation();
  for (int i = kRows + 2; i >= 0; --i) {
    ASSERT_TRUE(inserted.Insert(PairRow(i)).ok());
  }
  EXPECT_TRUE(rel.SameTuples(inserted));
  EXPECT_TRUE(inserted.SameTuples(rel));
  Relation fresh = PairRelation();
  for (int i = 0; i < kRows + 3; ++i) fresh.AppendDistinct(PairRow(i + 1));
  EXPECT_FALSE(fresh.SameTuples(rel));
  // The copy never saw the writes.
  EXPECT_EQ(copy.size(), kRows);
  EXPECT_FALSE(copy.Contains(PairRow(kRows)));
}

TEST(Relation, AppendDistinctBelowTheScanSizeAndKeyed) {
  // Small relations scan instead of indexing; the first probe past the
  // scan size indexes everything at once.
  Relation small = PairRelation();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(small.Insert(PairRow(i)).ok());
  for (int i = 10; i < 40; ++i) small.AppendDistinct(PairRow(i));
  ASSERT_TRUE(small.Insert(PairRow(39)).ok());
  ASSERT_TRUE(small.Insert(PairRow(3)).ok());
  EXPECT_EQ(small.size(), 40);
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(small.Contains(PairRow(i))) << i;

  // A keyed relation still refuses a second row for a key it holds.
  Relation keyed(MakeEmployeeSchema());
  for (int i = 0; i < 100; ++i) keyed.AppendDistinct(EmployeeRow(i));
  EXPECT_TRUE(keyed.Insert(EmployeeRow(42, 1)).IsSchemaMismatch());
  ASSERT_TRUE(keyed.Insert(EmployeeRow(42)).ok());
  EXPECT_EQ(keyed.size(), 100);
}

TEST(Relation, ConcurrentProbesCatchUpOnce) {
  // Readers sharing one relation race to catch its identity index up;
  // every one of them must see every row (and TSan must stay quiet).
  constexpr int kRows = 3 * 1024;
  constexpr int kReaders = 4;
  Relation rel = PairRelation();
  for (int i = 0; i < kRows; ++i) rel.AppendDistinct(PairRow(i));
  const Relation& shared = rel;
  std::vector<std::thread> readers;
  std::atomic<int> found{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&shared, &found, r] {
      int mine = 0;
      for (int i = r; i < kRows + r; ++i) {
        mine += shared.Contains(PairRow(i % kRows)) ? 1 : 0;
      }
      found.fetch_add(mine);
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(found.load(), kReaders * kRows);
}

TEST(DatabaseInstance, CreateInsertDrop) {
  DatabaseInstance db;
  EXPECT_TRUE(db.CreateRelation(MakeEmployeeSchema()).ok());
  EXPECT_TRUE(db.CreateRelation(MakeEmployeeSchema()).IsAlreadyExists());
  EXPECT_TRUE(db.HasRelation("EMPLOYEE"));
  EXPECT_TRUE(db.Insert("EMPLOYEE",
                        Tuple({Value::String("Jones"),
                               Value::String("manager"),
                               Value::Int64(26000)}))
                  .ok());
  EXPECT_TRUE(db.Insert("NOPE", Tuple({})).IsNotFound());
  auto rel = db.GetRelation("EMPLOYEE");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 1);
  EXPECT_TRUE(db.DropRelation("EMPLOYEE").ok());
  EXPECT_FALSE(db.HasRelation("EMPLOYEE"));
}

}  // namespace
}  // namespace viewauth
