// Tuples: fixed-arity rows of Values with value-based equality and
// hashing, so relations can enforce set semantics.

#ifndef VIEWAUTH_STORAGE_TUPLE_H_
#define VIEWAUTH_STORAGE_TUPLE_H_

#include <initializer_list>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/value.h"

namespace viewauth {

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  int arity() const { return static_cast<int>(values_.size()); }
  const Value& at(int i) const { return values_.at(i); }
  Value& at(int i) { return values_.at(i); }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value value) { values_.push_back(std::move(value)); }

  // Concatenation of two tuples (used by the product operator).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  // Projection onto the given column indices, in the given order.
  Tuple Project(const std::vector<int>& columns) const;

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  // Lexicographic order (for deterministic printing).
  bool operator<(const Tuple& other) const;

  size_t Hash() const;

  // e.g. "(Jones, manager, 26000)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

// Tuple::Hash of the tuple whose i-th cell is `cell(i)`, i < n, without
// building it.
template <typename Cell>
size_t HashCells(size_t n, Cell cell) {
  size_t h = 0x345678;
  for (size_t i = 0; i < n; ++i) h = h * 1000003 ^ cell(i).Hash();
  return h;
}

// Keeps the first of each set of equal rows, the rule a Relation's
// identity index applies: rows hash with HashCells and the caller
// compares them with Value equality. Rows are named by the caller's
// row numbers. Shared by the vectorized plan's distinct projection and
// step 5's delivery filter, which keep rows without building Tuples.
class FirstOfEqualRows {
 public:
  // Records `row` under `hash` and returns true, unless `same(kept)`
  // holds for a row `kept` recorded under `hash` before; then returns
  // false and records nothing.
  template <typename Same>
  bool Keep(size_t hash, size_t row, Same same) {
    auto [lo, hi] = kept_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (same(it->second)) return false;
    }
    kept_.emplace(hash, row);
    return true;
  }

 private:
  std::unordered_multimap<size_t, size_t> kept_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const Tuple& tuple);

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_TUPLE_H_
