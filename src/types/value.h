// Typed domain values for viewauth relations.
//
// The paper (Section 2, following Maier) associates a domain with each
// attribute. viewauth supports three concrete domains — 64-bit integers,
// doubles, and strings — plus a NULL marker that the masking layer uses
// for withheld cells. Integers and doubles compare numerically with each
// other; strings compare lexicographically; NULL compares equal only to
// NULL and is unordered relative to everything else.

#ifndef VIEWAUTH_TYPES_VALUE_H_
#define VIEWAUTH_TYPES_VALUE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace viewauth {

// The domain of an attribute.
enum class ValueType {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

std::string_view ValueTypeToString(ValueType type);

// The comparators theta of the paper's comparative subformulas.
enum class Comparator {
  kEq = 0,  // =
  kNe = 1,  // !=
  kLt = 2,  // <
  kLe = 3,  // <=
  kGt = 4,  // >
  kGe = 5,  // >=
};

// Symbolic form, e.g. ">=".
std::string_view ComparatorToString(Comparator op);
// Parses "=", "!=", "<>", "<", "<=", ">", ">=". Fails otherwise.
Result<Comparator> ComparatorFromString(std::string_view text);
// ReverseComparator(op) is the comparator r such that `a op b` iff
// `b r a` (e.g. < becomes >).
Comparator ReverseComparator(Comparator op);
// NegateComparator(op) is the comparator n such that `a op b` iff
// NOT `a n b` (e.g. < becomes >=).
Comparator NegateComparator(Comparator op);

class Value {
 public:
  // The default value is NULL (a masked / withheld cell).
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  bool is_null() const { return std::holds_alternative<NullRep>(rep_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }
  // True for int64 or double.
  bool is_numeric() const { return is_int64() || is_double(); }

  // Type of a non-null value. Must not be called on NULL.
  ValueType type() const;

  int64_t int64_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const {
    return std::get<std::string>(rep_);
  }
  // Numeric value widened to double (int64 or double).
  double AsDouble() const;

  // Three-way comparison: negative/zero/positive, or nullopt when the
  // values are incomparable (NULL vs anything, or string vs numeric).
  std::optional<int> Compare(const Value& other) const;

  // Evaluates `*this op other`. Incomparable pairs yield false for every
  // comparator (NULL never satisfies a predicate), matching SQL-style
  // filtering semantics.
  bool Satisfies(Comparator op, const Value& other) const;

  // Strict equality: same type and same contents (NULL == NULL). Unlike
  // Satisfies(kEq, ...), this treats two NULLs as equal, which is what
  // tuple identity (set semantics, hashing) needs.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order for container use: NULL < numerics < strings; two
  // int64s by exact value; other numerics by numeric value, ties broken
  // int64 < double.
  bool operator<(const Value& other) const;

  size_t Hash() const;

  // Display form: integers as-is, doubles with minimal digits, strings
  // unquoted, NULL as "null".
  std::string ToString() const;
  // Like ToString but strings are single-quoted when they contain
  // whitespace or punctuation that would confuse the parser, and integers
  // may use thousands separators if `commas` is set (paper figures style).
  std::string ToDisplayString(bool commas) const;

 private:
  struct NullRep {
    bool operator==(const NullRep&) const { return true; }
  };
  using Rep = std::variant<NullRep, int64_t, double, std::string>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

// Parses a literal in the viewauth surface syntax into a value of the
// requested type, with int64->double widening allowed.
Result<Value> ParseValueAs(std::string_view text, ValueType type);

}  // namespace viewauth

#endif  // VIEWAUTH_TYPES_VALUE_H_
