// KeyView: a non-owning view of join-key Values referenced in place.
//
// Allocating a projected key Tuple per row (`row.Project(key_cols)`) in
// the hash-join build/probe loops would dominate the data-side hot path.
// A KeyView instead collects `const Value*` references to the key cells
// of a (possibly scattered) row. The vectorized hash join hashes it with
// JoinKeyHash and matches keys by the canonical selection's numeric
// equality (algebra/vectorized.cc).

#ifndef VIEWAUTH_STORAGE_KEY_VIEW_H_
#define VIEWAUTH_STORAGE_KEY_VIEW_H_

#include <vector>

#include "types/value.h"

namespace viewauth {

class KeyView {
 public:
  KeyView() = default;

  // Reusable: Clear keeps the capacity, so a view refilled once per row
  // allocates only on its first use.
  void Clear() { refs_.clear(); }
  void Add(const Value& value) { refs_.push_back(&value); }
  void Reserve(size_t n) { refs_.reserve(n); }

  size_t size() const { return refs_.size(); }
  const Value& at(size_t i) const { return *refs_[i]; }

 private:
  std::vector<const Value*> refs_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_KEY_VIEW_H_
