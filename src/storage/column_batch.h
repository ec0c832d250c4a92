// Columnar batches for the vectorized data plan (DESIGN.md §17).
//
// A ColumnBatch is a window of up to kColumnBatchRows rows of the
// vectorized plan's row ids (algebra/vectorized.h), with lazy
// per-column gathering into ColumnVectors: each batch column reads one
// attribute of one base relation through the (relation, row id)
// indirection. A ColumnVector classifies the gathered
// window: when every cell is non-null and of one concrete type it
// exposes a flat typed array (int64_t / double / const std::string*)
// that the predicate kernels below iterate with branch-light,
// SIMD-friendly loops; otherwise it degrades to kMixed and the kernels
// fall back to per-row Value::Satisfies through boxed pointers (never
// copies).
//
// The kernels filter a selection vector — a vector of row ordinals
// into the batch — in place, compacting it to the ordinals whose rows
// pass. They are bit-identical to evaluating Value::Satisfies on every
// row: fast paths exist only for exact same-type comparisons, where
// Satisfies reduces to the plain scalar comparison; every other pair
// (cross-numeric, NULLs, string-vs-numeric) routes through Satisfies
// itself.

#ifndef VIEWAUTH_STORAGE_COLUMN_BATCH_H_
#define VIEWAUTH_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/tuple.h"
#include "types/value.h"

namespace viewauth {

// Rows per batch, equal to the rows per relation chunk so a batch is a
// chunk. 1024 keeps the working set (a handful of gathered columns plus
// the selection vector) inside L1/L2 while amortizing per-batch overhead
// (governor ticks, kernel dispatch) to noise.
inline constexpr uint32_t kColumnBatchRows = 1024;

// Classification of a gathered column window.
enum class ColumnClass {
  kInt64,   // every cell non-null int64; i64() is valid
  kDouble,  // every cell non-null double; f64() is valid
  kString,  // every cell non-null string; str() is valid
  kMixed,   // anything else (NULLs or mixed types); boxed access only
};

// One gathered column window. Always holds boxed pointers to the
// source Values (for fallbacks and materialization); additionally
// holds a flat typed array when the window is uniform.
class ColumnVector {
 public:
  // Gathers column `col` of `count` rows, row i being `row_at(i)`.
  template <typename RowAt>
  void Gather(size_t count, int col, RowAt row_at) {
    boxed_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      boxed_[i] = &row_at(i).values()[static_cast<size_t>(col)];
    }
    Classify();
  }
  // Gathers column `col` of every row of `rows`.
  void Gather(std::span<const Tuple> rows, int col) {
    Gather(rows.size(), col, [rows](size_t i) -> const Tuple& {
      return rows[i];
    });
  }

  ColumnClass cls() const { return cls_; }
  size_t size() const { return boxed_.size(); }

  const int64_t* i64() const { return i64_.data(); }
  const double* f64() const { return f64_.data(); }
  const std::string* const* str() const { return str_.data(); }
  // Boxed cell access; valid for every class.
  const Value& value(size_t i) const { return *boxed_[i]; }

 private:
  void Classify();

  ColumnClass cls_ = ColumnClass::kMixed;
  std::vector<const Value*> boxed_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<const std::string*> str_;
};

class Relation;

// Where a batch column's cells live: attribute `attr` of the row of
// `rel` whose id sits in slot `slot` of each row-id row.
struct ColumnSource {
  const Relation* rel = nullptr;
  int slot = 0;
  int attr = 0;
};

// A window of row-id rows with per-column lazily gathered
// ColumnVectors; column c holds the cells sources[c] names. Reusable:
// Reset keeps column capacity across batches.
class ColumnBatch {
 public:
  // Window of `count` rows whose ids start at `ids`, `stride` ids per
  // row. `sources`, `ids` and the relations must outlive the batch's
  // use.
  void Reset(std::span<const ColumnSource> sources, const uint32_t* ids,
             size_t count, int stride);

  // Column `col`, gathered on first access per Reset.
  const ColumnVector& column(int col);

 private:
  std::span<const ColumnSource> sources_;
  const uint32_t* ids_ = nullptr;
  size_t count_ = 0;
  size_t stride_ = 1;
  std::vector<ColumnVector> columns_;
  std::vector<char> gathered_;
};

// Resets `sel` to the identity selection [0, n).
void ResetSelection(std::vector<uint32_t>* sel, size_t n);

// Keeps the selected rows where `col[i] op rhs` per Value::Satisfies.
void FilterColumnConst(const ColumnVector& col, Comparator op,
                       const Value& rhs, std::vector<uint32_t>* sel);

// Keeps the selected rows where `lhs[i] op rhs[i]` per Value::Satisfies.
void FilterColumnColumn(const ColumnVector& lhs, Comparator op,
                        const ColumnVector& rhs, std::vector<uint32_t>* sel);

// Keeps the selected rows whose cell is non-null.
void FilterNotNull(const ColumnVector& col, std::vector<uint32_t>* sel);

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_COLUMN_BATCH_H_
