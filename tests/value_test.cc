// Unit tests for the typed value system.

#include "types/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace viewauth {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.ToString(), "null");
}

TEST(Value, TypedConstruction) {
  EXPECT_TRUE(Value::Int64(5).is_int64());
  EXPECT_TRUE(Value::Double(1.5).is_double());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_EQ(Value::Int64(5).type(), ValueType::kInt64);
  EXPECT_EQ(Value::Double(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value::String("x").type(), ValueType::kString);
}

TEST(Value, CrossNumericComparison) {
  EXPECT_EQ(Value::Int64(5).Compare(Value::Double(5.0)), 0);
  EXPECT_EQ(Value::Int64(5).Compare(Value::Double(5.5)), -1);
  EXPECT_EQ(Value::Double(6.0).Compare(Value::Int64(5)), 1);
}

TEST(Value, StringComparison) {
  EXPECT_EQ(Value::String("Acme").Compare(Value::String("Apex")), -1);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
}

TEST(Value, IncomparablePairs) {
  EXPECT_FALSE(Value::String("5").Compare(Value::Int64(5)).has_value());
  EXPECT_FALSE(Value::Null().Compare(Value::Int64(5)).has_value());
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(Value, NullNeverSatisfiesPredicates) {
  for (Comparator op : {Comparator::kEq, Comparator::kNe, Comparator::kLt,
                        Comparator::kLe, Comparator::kGt, Comparator::kGe}) {
    EXPECT_FALSE(Value::Null().Satisfies(op, Value::Null()));
    EXPECT_FALSE(Value::Null().Satisfies(op, Value::Int64(1)));
    EXPECT_FALSE(Value::Int64(1).Satisfies(op, Value::Null()));
  }
}

TEST(Value, StrictEqualityTreatsNullsEqual) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int64(0));
  EXPECT_EQ(Value::Int64(5), Value::Int64(5));
  EXPECT_NE(Value::Int64(5), Value::Double(5.0));  // different type
}

TEST(Value, TotalOrderForContainers) {
  EXPECT_TRUE(Value::Null() < Value::Int64(-100));
  EXPECT_TRUE(Value::Int64(3) < Value::String(""));
  EXPECT_TRUE(Value::Int64(3) < Value::Int64(4));
  EXPECT_TRUE(Value::Int64(3) < Value::Double(3.0));  // tie: int first
  EXPECT_FALSE(Value::Double(3.0) < Value::Int64(3));
}

TEST(Value, TotalOrderIsExactBeyondTwoToThe53) {
  // 2^53 and 2^53 + 1 share a double image; as Int64s they must not tie.
  constexpr int64_t kBig = int64_t{1} << 53;
  const Value a = Value::Int64(kBig);
  const Value b = Value::Int64(kBig + 1);
  const Value c = Value::Int64(kBig + 2);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(Value::Int64(-kBig - 1) < Value::Int64(-kBig));
  EXPECT_TRUE(Value::Int64(INT64_MIN) < Value::Int64(INT64_MIN + 1));
  EXPECT_TRUE(Value::Int64(INT64_MAX - 1) < Value::Int64(INT64_MAX));
  // A mixed pair orders by double image, then Int64 before Double: every
  // Int64 whose image is 2^53 precedes Double(2^53), which precedes the
  // Int64s whose image is larger.
  const Value d = Value::Double(static_cast<double>(kBig));
  EXPECT_TRUE(a < d);
  EXPECT_TRUE(b < d);  // image of 2^53 + 1 is 2^53 (round to even)
  EXPECT_FALSE(d < b);
  EXPECT_TRUE(d < c);
  // Strict weak order: sorting a shuffled mix is stable under re-sorting
  // and every adjacent pair is ordered or equivalent one way only.
  std::vector<Value> values = {c, d, Value::Double(0.5), b, a,
                               Value::Int64(0), Value::Double(kBig + 4.0)};
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_FALSE(values[i + 1] < values[i]) << i;
  }
  EXPECT_EQ(values, (std::vector<Value>{Value::Int64(0), Value::Double(0.5),
                                        a, b, d, c,
                                        Value::Double(kBig + 4.0)}));
}

TEST(Value, HashConsistentWithCrossNumericEquality) {
  // Int64(5) and Double(5.0) compare equal under Satisfies(kEq), so
  // their hashes agree where exactly representable.
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Double(5.0).Hash());
}

TEST(Value, HashIsDefinedAtInt64Extremes) {
  // From 2^63 - 512 up an Int64's double image rounds to 2^63, which no
  // int64_t holds: these hash as integers, without casting back.
  for (const int64_t v : {INT64_MAX, INT64_MAX - 1, INT64_MAX - 511}) {
    EXPECT_EQ(Value::Int64(v).Hash(), std::hash<int64_t>()(v)) << v;
  }
  // Exact images keep hashing as their double, at both ends of the range.
  const int64_t top_exact = INT64_MAX - 1023;  // 2^63 - 1024
  EXPECT_EQ(Value::Int64(top_exact).Hash(),
            Value::Double(static_cast<double>(top_exact)).Hash());
  EXPECT_EQ(Value::Int64(INT64_MIN).Hash(), Value::Double(-0x1p63).Hash());
  // Below the top, inexact images hash as integers, as they always have.
  const int64_t inexact = (int64_t{1} << 53) + 1;
  EXPECT_EQ(Value::Int64(inexact).Hash(), std::hash<int64_t>()(inexact));
}

TEST(Value, DisplayStrings) {
  EXPECT_EQ(Value::Int64(250000).ToDisplayString(true), "250,000");
  EXPECT_EQ(Value::Int64(-1234567).ToDisplayString(true), "-1,234,567");
  EXPECT_EQ(Value::Int64(250000).ToDisplayString(false), "250000");
  EXPECT_EQ(Value::String("Acme").ToDisplayString(false), "Acme");
  EXPECT_EQ(Value::String("two words").ToDisplayString(false),
            "'two words'");
  EXPECT_EQ(Value::String("bq-45").ToDisplayString(false), "bq-45");
}

TEST(Value, ParseValueAs) {
  auto i = ParseValueAs("42", ValueType::kInt64);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, Value::Int64(42));
  auto d = ParseValueAs("2.5", ValueType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, Value::Double(2.5));
  auto whole = ParseValueAs("3", ValueType::kDouble);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, Value::Double(3.0));
  auto s = ParseValueAs("hello", ValueType::kString);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, Value::String("hello"));
  EXPECT_FALSE(ParseValueAs("abc", ValueType::kInt64).ok());
  EXPECT_FALSE(ParseValueAs("1.5x", ValueType::kDouble).ok());
}

TEST(Comparator, StringRoundTrip) {
  for (Comparator op : {Comparator::kEq, Comparator::kNe, Comparator::kLt,
                        Comparator::kLe, Comparator::kGt, Comparator::kGe}) {
    auto parsed = ComparatorFromString(ComparatorToString(op));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, op);
  }
  auto alt = ComparatorFromString("<>");
  ASSERT_TRUE(alt.ok());
  EXPECT_EQ(*alt, Comparator::kNe);
  EXPECT_FALSE(ComparatorFromString("~").ok());
}

// Parameterized semantics check: ReverseComparator and NegateComparator
// behave as advertised on every ordered pair.
struct ComparatorCase {
  int64_t a;
  int64_t b;
};

class ComparatorLawsTest : public ::testing::TestWithParam<ComparatorCase> {};

TEST_P(ComparatorLawsTest, ReverseAndNegateLaws) {
  const auto& param = GetParam();
  Value a = Value::Int64(param.a);
  Value b = Value::Int64(param.b);
  for (Comparator op : {Comparator::kEq, Comparator::kNe, Comparator::kLt,
                        Comparator::kLe, Comparator::kGt, Comparator::kGe}) {
    EXPECT_EQ(a.Satisfies(op, b), b.Satisfies(ReverseComparator(op), a))
        << ComparatorToString(op) << " on " << param.a << "," << param.b;
    EXPECT_EQ(a.Satisfies(op, b), !a.Satisfies(NegateComparator(op), b))
        << ComparatorToString(op) << " on " << param.a << "," << param.b;
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs, ComparatorLawsTest,
                         ::testing::Values(ComparatorCase{1, 2},
                                           ComparatorCase{2, 1},
                                           ComparatorCase{3, 3},
                                           ComparatorCase{-5, 5},
                                           ComparatorCase{0, 0}));

}  // namespace
}  // namespace viewauth
