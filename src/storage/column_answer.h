// The delivered answer of a retrieve, held column by column (DESIGN.md
// §17): one image per delivered column, all of one length. Step 5
// appends each delivered cell to its column's image, full access gathers
// S's row ids into the images, and the renderer reads cells straight
// from them, so no per-row Tuple is built between step 5 and the reply.
// The rows are distinct, as a Relation's are: whoever appends a row has
// already ruled out an equal one.
//
// A column whose cells are all Int64 or NULL is an integer image: one
// int64_t per row plus a NULL mask. Its first cell of any other kind
// turns it, once and for good, into a Value image. The cells decide;
// the schema's declared type is never consulted.

#ifndef VIEWAUTH_STORAGE_COLUMN_ANSWER_H_
#define VIEWAUTH_STORAGE_COLUMN_ANSWER_H_

#include <cstdint>
#include <vector>

#include "schema/schema.h"
#include "storage/relation.h"
#include "types/value.h"

namespace viewauth {

class ColumnAnswer {
 public:
  // One column's image.
  class Column {
   public:
    // Whether the column is still an integer image.
    bool is_int() const { return is_int_; }
    // The integer image, 0 under a NULL; empty once the column turned.
    const std::vector<int64_t>& ints() const { return ints_; }
    // Whether any cell of an integer image is NULL.
    bool has_nulls() const { return !null_words_.empty(); }
    // Whether row r of an integer image is NULL.
    bool is_null(size_t r) const {
      const size_t word = r / 64;
      return word < null_words_.size() &&
             ((null_words_[word] >> (r % 64)) & 1) != 0;
    }
    // The Value image; empty while the column is an integer image.
    const std::vector<Value>& values() const { return values_; }

    Value cell(size_t r) const {
      if (!is_int_) return values_[r];
      return is_null(r) ? Value::Null() : Value::Int64(ints_[r]);
    }
    // cell(r) == value, without building cell(r).
    bool CellEquals(size_t r, const Value& value) const {
      if (!is_int_) return values_[r] == value;
      if (is_null(r)) return value.is_null();
      return value.is_int64() && value.int64_value() == ints_[r];
    }

    void Append(const Value& value) {
      if (is_int_) {
        if (value.is_int64()) {
          ints_.push_back(value.int64_value());
          return;
        }
        if (value.is_null()) {
          MarkNull(ints_.size());
          ints_.push_back(0);
          return;
        }
        TurnToValues();
      }
      values_.push_back(value);
    }
    void Reserve(size_t rows);

   private:
    void MarkNull(size_t r);
    // Rewrites the integer image as a Value image and drops it.
    void TurnToValues();

    bool is_int_ = true;
    std::vector<int64_t> ints_;
    // Bit r is set when row r is NULL; words past the end are all zero,
    // so a column without NULLs holds none.
    std::vector<uint64_t> null_words_;
    std::vector<Value> values_;
  };

  ColumnAnswer() = default;
  // No rows, one empty image per attribute of `schema`.
  explicit ColumnAnswer(RelationSchema schema);
  // The rows of `rows`, in order; each must have the schema's arity.
  explicit ColumnAnswer(const Relation& rows);

  const RelationSchema& schema() const { return schema_; }
  int arity() const { return static_cast<int>(columns_.size()); }
  int size() const { return rows_; }
  const Column& column(size_t c) const { return columns_[c]; }
  // Cell `c` of row `r`.
  Value cell(size_t r, size_t c) const { return columns_[c].cell(r); }

  // Room for `rows` more rows in every image.
  void Reserve(size_t rows);
  // Appends the row whose c-th cell is `cell(c)`. The caller guarantees
  // it equals no row already present.
  template <typename Cell>
  void AppendRow(Cell cell) {
    for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(cell(c));
    ++rows_;
  }

  // The same rows in the same order, as a Relation.
  Relation Materialize() const;

 private:
  RelationSchema schema_;
  std::vector<Column> columns_;
  int rows_ = 0;
};

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_COLUMN_ANSWER_H_
