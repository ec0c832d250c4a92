// Unit tests for the ASCII table renderer.

#include "engine/table_printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace viewauth {
namespace {

// The renderer as it was before PrintRelation rendered in one pass
// (sorted tuple copies, a vector of cell strings, an ostringstream),
// kept here only as the reference the output must match byte for byte.
std::string ReferenceTable(const std::vector<std::string>& header,
                           const std::vector<std::vector<std::string>>& rows,
                           const std::string& caption) {
  std::vector<size_t> widths(header.size(), 0);
  for (size_t i = 0; i < header.size(); ++i) {
    widths[i] = header[i].size();
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  if (!caption.empty()) out << caption << "\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      out << " " << cell << std::string(widths[i] - cell.size(), ' ')
          << " |";
    }
    out << "\n";
  };
  emit_row(header);
  out << "|";
  for (size_t width : widths) {
    out << std::string(width + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows) emit_row(row);
  return out.str();
}

std::string ReferencePrintRelation(const Relation& relation,
                                   const TablePrintOptions& options) {
  std::vector<std::string> header;
  for (const Attribute& attr : relation.schema().attributes()) {
    header.push_back(attr.name);
  }
  std::vector<Tuple> data =
      options.sorted ? relation.SortedRows()
                     : std::vector<Tuple>(relation.begin(), relation.end());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(data.size());
  for (const Tuple& tuple : data) {
    std::vector<std::string> row;
    row.reserve(static_cast<size_t>(tuple.arity()));
    for (const Value& value : tuple.values()) {
      if (value.is_null()) {
        row.push_back(options.null_text);
      } else if (value.is_string()) {
        row.push_back(value.string_value());  // raw, no quoting
      } else {
        row.push_back(value.ToDisplayString(options.thousands_separators));
      }
    }
    rows.push_back(std::move(row));
  }
  return ReferenceTable(header, rows, options.caption);
}

// Every combination of the options that change the output.
std::vector<TablePrintOptions> AllOptions() {
  std::vector<TablePrintOptions> all;
  for (bool sorted : {true, false}) {
    for (bool commas : {true, false}) {
      for (const char* caption : {"", "result for u:"}) {
        for (const char* null_text : {"-", "(withheld)"}) {
          TablePrintOptions options;
          options.sorted = sorted;
          options.thousands_separators = commas;
          options.caption = caption;
          options.null_text = null_text;
          all.push_back(options);
        }
      }
    }
  }
  return all;
}

// Matches the reference under every option combination, and with a
// trailer after the table; when every row has the schema's arity, so
// does the relation's column answer (integer images where a column's
// cells are all Int64 or NULL), rendered by the column-image overload
// and compared byte for byte with the reference and with its
// Materialize()d relation.
void ExpectMatchesReference(const Relation& rel) {
  const bool uniform =
      std::all_of(rel.begin(), rel.end(), [&](const Tuple& row) {
        return row.arity() == rel.schema().arity();
      });
  const ColumnAnswer answer = uniform ? ColumnAnswer(rel) : ColumnAnswer();
  for (TablePrintOptions options : AllOptions()) {
    SCOPED_TRACE("sorted=" + std::to_string(options.sorted) +
                 " commas=" + std::to_string(options.thousands_separators) +
                 " caption='" + options.caption + "' null='" +
                 options.null_text + "'");
    const std::string reference = ReferencePrintRelation(rel, options);
    EXPECT_EQ(PrintRelation(rel, options), reference);
    if (uniform) {
      EXPECT_EQ(PrintRelation(answer, options), reference);
      EXPECT_EQ(PrintRelation(answer, options),
                PrintRelation(answer.Materialize(), options));
    }
    const std::string trailer = "permit (A) where A = 'x\ny'\npermit (B)\n";
    options.trailer = trailer;
    EXPECT_EQ(PrintRelation(rel, options), reference + trailer);
    if (uniform) {
      EXPECT_EQ(PrintRelation(answer, options), reference + trailer);
    }
  }
}

Relation SampleRelation() {
  RelationSchema schema =
      RelationSchema::Make("T", {{"NAME", ValueType::kString},
                                 {"SALARY", ValueType::kInt64}})
          .value();
  Relation rel(schema);
  EXPECT_TRUE(rel.Insert(Tuple({Value::String("Jones"),
                                Value::Int64(26000)}))
                  .ok());
  EXPECT_TRUE(
      rel.Insert(Tuple({Value::String("Brown"), Value::Null()})).ok());
  return rel;
}

TEST(TablePrinter, BasicLayout) {
  std::string out = PrintRelation(SampleRelation());
  // Header, separator, two sorted rows.
  EXPECT_NE(out.find("| NAME "), std::string::npos);
  EXPECT_NE(out.find("| SALARY"), std::string::npos);
  EXPECT_NE(out.find("|------"), std::string::npos);
  EXPECT_NE(out.find("26,000"), std::string::npos);  // thousands separators
  EXPECT_NE(out.find("| -"), std::string::npos);     // NULL cell
  // Sorted: Brown before Jones.
  EXPECT_LT(out.find("Brown"), out.find("Jones"));
}

TEST(TablePrinter, Options) {
  TablePrintOptions options;
  options.thousands_separators = false;
  options.null_text = "(withheld)";
  options.caption = "salaries:";
  std::string out = PrintRelation(SampleRelation(), options);
  EXPECT_NE(out.find("salaries:"), std::string::npos);
  EXPECT_NE(out.find("26000"), std::string::npos);
  EXPECT_EQ(out.find("26,000"), std::string::npos);
  EXPECT_NE(out.find("(withheld)"), std::string::npos);
}

TEST(TablePrinter, StringsPrintRaw) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"CELL", ValueType::kString}}).value();
  Relation rel(schema);
  ASSERT_TRUE(rel.Insert(Tuple({Value::String("x1*")})).ok());
  std::string out = PrintRelation(rel);
  EXPECT_NE(out.find("| x1* "), std::string::npos);
  EXPECT_EQ(out.find("'x1*'"), std::string::npos);  // no quoting in tables
}

TEST(TablePrinter, ColumnAnswerKeepsRowsAndOrder) {
  const Relation rel = SampleRelation();
  const ColumnAnswer answer(rel);
  ASSERT_EQ(answer.size(), rel.size());
  ASSERT_EQ(answer.arity(), 2);
  EXPECT_EQ(answer.cell(1, 0), Value::String("Brown"));
  EXPECT_TRUE(answer.cell(1, 1).is_null());
  const Relation back = answer.Materialize();
  ASSERT_EQ(back.size(), rel.size());
  for (RowId i = 0; i < static_cast<RowId>(rel.size()); ++i) {
    EXPECT_TRUE(back.row(i) == rel.row(i)) << "row " << i;
  }
  EXPECT_TRUE(back.Contains(rel.row(0)));  // the copy is still a set
  ExpectMatchesReference(rel);
}

// The cells of `answer` and `rel` agree row for row, through cell() and
// through Materialize().
void ExpectSameCells(const ColumnAnswer& answer, const Relation& rel) {
  ASSERT_EQ(answer.size(), rel.size());
  const Relation back = answer.Materialize();
  for (RowId r = 0; r < static_cast<RowId>(rel.size()); ++r) {
    EXPECT_TRUE(back.row(r) == rel.row(r)) << "row " << r;
    for (size_t c = 0; c < static_cast<size_t>(answer.arity()); ++c) {
      EXPECT_EQ(answer.cell(static_cast<size_t>(r), c), rel.row(r).at(c))
          << "row " << r << " column " << c;
    }
  }
}

TEST(TablePrinter, ColumnTurnsIntoValuesOnItsFirstOtherCell) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"MIXED", ValueType::kInt64},
                                 {"I", ValueType::kInt64}})
          .value();
  // Integers and NULLs, then one string or double, then integers again;
  // the second column stays integers throughout.
  for (const Value& other : {Value::String("text"), Value::Double(2.5)}) {
    SCOPED_TRACE(other.ToString());
    Relation rel(schema);
    for (int i = 0; i < 200; ++i) {
      Value mixed = i == 150  ? other
                    : i % 9 == 0 ? Value::Null()
                                 : Value::Int64((i * 7919) % 1000 - 500);
      rel.InsertUnchecked(Tuple({std::move(mixed), Value::Int64(i - 100)}));
    }
    ColumnAnswer answer(schema);
    for (RowId r = 0; r < static_cast<RowId>(rel.size()); ++r) {
      answer.AppendRow(
          [&](size_t c) -> const Value& { return rel.row(r).at(c); });
      EXPECT_EQ(answer.column(0).is_int(), r < 150) << "row " << r;
    }
    EXPECT_TRUE(answer.column(1).is_int());
    EXPECT_TRUE(answer.column(0).ints().empty());
    ExpectSameCells(answer, rel);
    EXPECT_TRUE(answer.column(0).CellEquals(150, other));
    EXPECT_TRUE(answer.column(0).CellEquals(0, Value::Null()));
    ExpectMatchesReference(rel);
  }
}

TEST(TablePrinter, IntegerImagesSortNullFirstAndPrintExtremes) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"K", ValueType::kInt64},
                                 {"V", ValueType::kInt64}})
          .value();
  Relation rel(schema);
  const std::vector<Value> keys = {
      Value::Int64(5),        Value::Null(),          Value::Int64(INT64_MAX),
      Value::Int64(-1),       Value::Int64(INT64_MIN), Value::Int64(0),
      Value::Int64(-999),     Value::Int64(-1000),    Value::Int64(1000),
      Value::Int64(-1234567), Value::Int64(999),      Value::Null()};
  for (size_t i = 0; i < keys.size(); ++i) {
    // Two rows share a NULL key and differ in V, so V breaks the tie.
    rel.InsertUnchecked(
        Tuple({keys[i], keys[i].is_null() ? Value::Int64(static_cast<int64_t>(
                                                  10 - i))
                                          : Value::Null()}));
  }
  const ColumnAnswer answer(rel);
  ASSERT_TRUE(answer.column(0).is_int());
  ASSERT_TRUE(answer.column(1).is_int());
  ExpectSameCells(answer, rel);
  ExpectMatchesReference(rel);

  // NULL keys first, V breaking their tie, then INT64_MIN.
  std::vector<std::string> lines;
  std::istringstream out(PrintRelation(answer));
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2 + keys.size());
  EXPECT_EQ(lines[2], "| " + std::string(26, ' ').replace(0, 1, "-") +
                          " | -1 |");
  EXPECT_EQ(lines[3], "| " + std::string(26, ' ').replace(0, 1, "-") +
                          " | 9  |");
  EXPECT_EQ(lines[4], "| -9,223,372,036,854,775,808 | -  |");
  EXPECT_EQ(lines[5], "| -1,234,567                 | -  |");
  EXPECT_EQ(lines.back(), "| 9,223,372,036,854,775,807  | -  |");
  TablePrintOptions plain;
  plain.thousands_separators = false;
  EXPECT_NE(PrintRelation(answer, plain).find("| -9223372036854775808 |"),
            std::string::npos);
}

TEST(TablePrinter, AnswerMixingIntegerAndStringColumns) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"NAME", ValueType::kString},
                                 {"SALARY", ValueType::kInt64},
                                 {"RANK", ValueType::kInt64}})
          .value();
  Relation rel(schema);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    Value name = rng() % 11 == 0
                     ? Value::Null()
                     : Value::String("n" + std::to_string(rng() % 40));
    Value salary = rng() % 13 == 0
                       ? Value::Null()
                       : Value::Int64(static_cast<int64_t>(rng() % 2000000) -
                                      1000000);
    rel.InsertUnchecked(Tuple({std::move(name), std::move(salary),
                               Value::Int64(static_cast<int64_t>(rng() % 4))}));
  }
  const ColumnAnswer answer(rel);
  EXPECT_FALSE(answer.column(0).is_int());
  EXPECT_TRUE(answer.column(1).is_int());
  EXPECT_TRUE(answer.column(2).is_int());
  ExpectSameCells(answer, rel);
  ExpectMatchesReference(rel);
}

TEST(TablePrinter, EmptyRelation) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"A", ValueType::kInt64}}).value();
  Relation rel(schema);
  std::string out = PrintRelation(rel);
  EXPECT_NE(out.find("| A"), std::string::npos);
  // Header + separator only.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(TablePrinter, MatchesReferenceOnEdgeCells) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"I", ValueType::kInt64},
                                 {"DOUBLE_COLUMN", ValueType::kDouble},
                                 {"S", ValueType::kString}})
          .value();
  Relation rel(schema);
  auto add = [&](Value i, Value d, Value s) {
    ASSERT_TRUE(rel.Insert(Tuple({std::move(i), std::move(d), std::move(s)}))
                    .ok());
  };
  add(Value::Int64(INT64_MIN), Value::Double(-0.5), Value::String(""));
  add(Value::Int64(INT64_MAX), Value::Double(1e20), Value::String("a b"));
  add(Value::Int64(-1), Value::Double(3.0), Value::String("it's"));
  add(Value::Int64(-999), Value::Double(1e-7), Value::String("x,y;z"));
  add(Value::Int64(-1000), Value::Double(123456789.0), Value::String("'q'"));
  add(Value::Int64(0), Value::Null(), Value::String("tab\there"));
  add(Value::Int64(999), Value::Int64(7), Value::Null());
  add(Value::Int64(1000), Value::Double(2.5), Value::String("long cell text"));
  add(Value::Int64(123456), Value::Double(-0.0), Value::String("-"));
  add(Value::Int64(1234567), Value::Double(0.1), Value::String("ä"));
  add(Value::Null(), Value::Null(), Value::Null());
  add(Value::Int64(int64_t{1} << 53), Value::Double(9007199254740992.0),
      Value::String("two53"));
  add(Value::Int64((int64_t{1} << 53) + 1), Value::Double(1.0 / 3.0),
      Value::String("two53+1"));
  ExpectMatchesReference(rel);
}

TEST(TablePrinter, MatchesReferenceOnEmptyAndRaggedRelations) {
  RelationSchema schema =
      RelationSchema::Make("T", {{"LONG_HEADER", ValueType::kInt64},
                                 {"B", ValueType::kString}})
          .value();
  Relation rel(schema);
  ExpectMatchesReference(rel);
  // Operator outputs may hold tuples of another arity: missing cells are
  // blank, extra cells are not shown.
  ASSERT_TRUE(rel.InsertUnchecked(Tuple({Value::Int64(5)})));
  ASSERT_TRUE(rel.InsertUnchecked(
      Tuple({Value::Int64(4), Value::String("b"), Value::String("extra")})));
  ASSERT_TRUE(rel.InsertUnchecked(Tuple({})));
  ExpectMatchesReference(rel);
}

TEST(TablePrinter, MatchesReferenceOnLargeRandomRelations) {
  RelationSchema schema =
      RelationSchema::Make("R", {{"KEY", ValueType::kInt64},
                                 {"A", ValueType::kInt64},
                                 {"B", ValueType::kDouble}})
          .value();
  // Leading cells all Int64 with many ties, then with a few NULLs and
  // keys beyond 2^53 among them.
  for (bool all_int : {true, false}) {
    SCOPED_TRACE(all_int ? "all-int leading cells" : "mixed leading cells");
    Relation rel(schema);
    std::mt19937_64 rng(11);
    for (int i = 0; i < 3000; ++i) {
      const auto a = static_cast<int64_t>(rng() % 2000) - 1000;
      Value b = rng() % 5 == 0 ? Value::Null()
                               : Value::Double(static_cast<double>(a) / 8);
      Value key = Value::Int64(static_cast<int64_t>(rng() % 64) - 32);
      if (!all_int && i % 97 == 0) key = Value::Null();
      if (!all_int && i % 10 == 0) key = Value::Int64((int64_t{1} << 53) + i);
      rel.InsertUnchecked(
          Tuple({std::move(key), Value::Int64(a), std::move(b)}));
    }
    ExpectMatchesReference(rel);
  }
}

}  // namespace
}  // namespace viewauth
