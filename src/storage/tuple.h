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
// compares them cell by cell with Value equality. Rows are named by the
// caller's row numbers. Shared by the vectorized plan's distinct
// projection, step 5's delivery filter and the union of a disjunctive
// retrieve's branches, which keep rows without building Tuples.
class FirstOfEqualRows {
 public:
  // Records the row whose k-th cell is `cell(k)`, k < arity, as `row`
  // and returns true, unless `equal(kept, k, cell(k))` holds for every
  // k for a row `kept` recorded before; then returns false and records
  // nothing.
  template <typename Cell, typename Equal>
  bool Keep(size_t arity, size_t row, Cell cell, Equal equal) {
    const size_t hash = HashCells(arity, cell);
    auto [lo, hi] = kept_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      size_t k = 0;
      while (k < arity && equal(it->second, k, cell(k))) ++k;
      if (k == arity) return false;
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
