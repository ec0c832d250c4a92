#include "storage/tuple.h"

#include <sstream>

#include "common/str_util.h"

namespace viewauth {

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values;
  values.reserve(left.values_.size() + right.values_.size());
  values.insert(values.end(), left.values_.begin(), left.values_.end());
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

Tuple Tuple::Project(const std::vector<int>& columns) const {
  std::vector<Value> values;
  values.reserve(columns.size());
  for (int c : columns) values.push_back(values_.at(c));
  return Tuple(std::move(values));
}

bool Tuple::operator<(const Tuple& other) const {
  const size_t n = std::min(values_.size(), other.values_.size());
  for (size_t i = 0; i < n; ++i) {
    if (values_[i] < other.values_[i]) return true;
    if (other.values_[i] < values_[i]) return false;
  }
  return values_.size() < other.values_.size();
}

size_t Tuple::Hash() const {
  return HashCells(values_.size(),
                   [this](size_t i) -> const Value& { return values_[i]; });
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  return "(" + Join(parts, ", ") + ")";
}

std::ostream& operator<<(std::ostream& os, const Tuple& tuple) {
  return os << tuple.ToString();
}

}  // namespace viewauth
