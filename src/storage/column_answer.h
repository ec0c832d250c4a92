// The delivered answer of a retrieve, held column by column (DESIGN.md
// §17): one image — a vector of Values — per delivered column, all of
// one length. Step 5 appends each delivered cell to its column's image,
// full access gathers S's row ids into the images, and the renderer
// reads cells straight from them, so no per-row Tuple is built between
// step 5 and the reply. The rows are distinct, as a Relation's are:
// whoever appends a row has already ruled out an equal one.

#ifndef VIEWAUTH_STORAGE_COLUMN_ANSWER_H_
#define VIEWAUTH_STORAGE_COLUMN_ANSWER_H_

#include <vector>

#include "schema/schema.h"
#include "storage/relation.h"
#include "types/value.h"

namespace viewauth {

class ColumnAnswer {
 public:
  ColumnAnswer() = default;
  // No rows, one empty image per attribute of `schema`.
  explicit ColumnAnswer(RelationSchema schema);
  // The rows of `rows`, in order; each must have the schema's arity.
  explicit ColumnAnswer(const Relation& rows);

  const RelationSchema& schema() const { return schema_; }
  int arity() const { return static_cast<int>(images_.size()); }
  int size() const { return rows_; }
  // Cell `c` of row `r`.
  const Value& cell(size_t r, size_t c) const { return images_[c][r]; }

  // Room for `rows` more rows in every image.
  void Reserve(size_t rows);
  // Appends the row whose c-th cell is `cell(c)`. The caller guarantees
  // it equals no row already present.
  template <typename Cell>
  void AppendRow(Cell cell) {
    for (size_t c = 0; c < images_.size(); ++c) images_[c].push_back(cell(c));
    ++rows_;
  }

  // The same rows in the same order, as a Relation.
  Relation Materialize() const;

 private:
  RelationSchema schema_;
  std::vector<std::vector<Value>> images_;
  int rows_ = 0;
};

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_COLUMN_ANSWER_H_
