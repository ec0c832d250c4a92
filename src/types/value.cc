#include "types/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/str_util.h"

namespace viewauth {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

std::string_view ComparatorToString(Comparator op) {
  switch (op) {
    case Comparator::kEq:
      return "=";
    case Comparator::kNe:
      return "!=";
    case Comparator::kLt:
      return "<";
    case Comparator::kLe:
      return "<=";
    case Comparator::kGt:
      return ">";
    case Comparator::kGe:
      return ">=";
  }
  return "?";
}

Result<Comparator> ComparatorFromString(std::string_view text) {
  if (text == "=" || text == "==") return Comparator::kEq;
  if (text == "!=" || text == "<>") return Comparator::kNe;
  if (text == "<") return Comparator::kLt;
  if (text == "<=") return Comparator::kLe;
  if (text == ">") return Comparator::kGt;
  if (text == ">=") return Comparator::kGe;
  return Status::InvalidArgument("unknown comparator: '" + std::string(text) +
                                 "'");
}

Comparator ReverseComparator(Comparator op) {
  switch (op) {
    case Comparator::kEq:
      return Comparator::kEq;
    case Comparator::kNe:
      return Comparator::kNe;
    case Comparator::kLt:
      return Comparator::kGt;
    case Comparator::kLe:
      return Comparator::kGe;
    case Comparator::kGt:
      return Comparator::kLt;
    case Comparator::kGe:
      return Comparator::kLe;
  }
  return op;
}

Comparator NegateComparator(Comparator op) {
  switch (op) {
    case Comparator::kEq:
      return Comparator::kNe;
    case Comparator::kNe:
      return Comparator::kEq;
    case Comparator::kLt:
      return Comparator::kGe;
    case Comparator::kLe:
      return Comparator::kGt;
    case Comparator::kGt:
      return Comparator::kLe;
    case Comparator::kGe:
      return Comparator::kLt;
  }
  return op;
}

ValueType Value::type() const {
  VIEWAUTH_CHECK(!is_null()) << "type() of NULL value";
  if (is_int64()) return ValueType::kInt64;
  if (is_double()) return ValueType::kDouble;
  return ValueType::kString;
}

double Value::AsDouble() const {
  VIEWAUTH_CHECK(is_numeric()) << "AsDouble() of non-numeric value";
  return is_int64() ? static_cast<double>(int64_value()) : double_value();
}

std::optional<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return std::nullopt;
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int64() && other.is_int64()) {
      const int64_t a = int64_value();
      const int64_t b = other.int64_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    const int c = string_value().compare(other.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return std::nullopt;  // string vs numeric
}

bool Value::Satisfies(Comparator op, const Value& other) const {
  // NULL never satisfies a predicate (even NULL = NULL), so masked cells
  // cannot leak through qualifications.
  if (is_null() || other.is_null()) return false;
  std::optional<int> cmp = Compare(other);
  if (!cmp.has_value()) return false;
  switch (op) {
    case Comparator::kEq:
      return *cmp == 0;
    case Comparator::kNe:
      return *cmp != 0;
    case Comparator::kLt:
      return *cmp < 0;
    case Comparator::kLe:
      return *cmp <= 0;
    case Comparator::kGt:
      return *cmp > 0;
    case Comparator::kGe:
      return *cmp >= 0;
  }
  return false;
}

bool Value::operator==(const Value& other) const { return rep_ == other.rep_; }

bool Value::operator<(const Value& other) const {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  const int ra = rank(*this);
  const int rb = rank(other);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // NULL == NULL
  if (ra == 1) {
    // Int64 pairs compare exactly: distinct integers beyond 2^53 share a
    // double image. A mixed pair orders by (double image, Int64 before
    // Double), which keeps the order strict weak: within one double
    // image the Int64s (exactly ordered) precede the Double.
    if (is_int64() && other.is_int64()) {
      return int64_value() < other.int64_value();
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    if (a != b) return a < b;
    return is_int64() && other.is_double();
  }
  return string_value() < other.string_value();
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_int64()) {
    // An Int64 whose double image is exact hashes as that double, so the
    // hash agrees with the numeric equality of Compare and Satisfies
    // (operator== never equates an Int64 with a Double). The range check
    // comes first: from 2^63 - 512 up the image rounds to 2^63, which no
    // int64_t holds, so casting it back would be undefined.
    const double d = static_cast<double>(int64_value());
    if (d < 0x1p63 && static_cast<int64_t>(d) == int64_value()) {
      return std::hash<double>()(d);
    }
    return std::hash<int64_t>()(int64_value());
  }
  if (is_double()) return std::hash<double>()(double_value());
  return std::hash<std::string>()(string_value());
}

std::string Value::ToString() const {
  if (is_null()) return "null";
  if (is_int64()) return std::to_string(int64_value());
  if (is_double()) {
    std::ostringstream out;
    out << double_value();
    return out.str();
  }
  return string_value();
}

std::string Value::ToDisplayString(bool commas) const {
  if (is_null()) return "null";
  if (is_int64() && commas) return FormatWithCommas(int64_value());
  if (is_string()) {
    const std::string& s = string_value();
    bool needs_quotes = s.empty();
    for (char c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != '-') {
        needs_quotes = true;
        break;
      }
    }
    if (needs_quotes) return "'" + s + "'";
    return s;
  }
  return ToString();
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

Result<Value> ParseValueAs(std::string_view text, ValueType type) {
  switch (type) {
    case ValueType::kInt64: {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::InvalidArgument("not an integer literal: '" +
                                       std::string(text) + "'");
      }
      return Value::Int64(v);
    }
    case ValueType::kDouble: {
      // std::from_chars<double> is available but accept int syntax too.
      std::string buf(text);
      char* end = nullptr;
      const double v = std::strtod(buf.c_str(), &end);
      if (end != buf.c_str() + buf.size() || buf.empty()) {
        return Status::InvalidArgument("not a numeric literal: '" + buf +
                                       "'");
      }
      return Value::Double(v);
    }
    case ValueType::kString:
      return Value::String(std::string(text));
  }
  return Status::Internal("unhandled value type");
}

}  // namespace viewauth
