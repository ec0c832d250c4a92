#include "storage/column_answer.h"

namespace viewauth {

void ColumnAnswer::Column::Reserve(size_t rows) {
  if (is_int_) {
    ints_.reserve(ints_.size() + rows);
  } else {
    values_.reserve(values_.size() + rows);
  }
}

void ColumnAnswer::Column::MarkNull(size_t r) {
  if (r / 64 >= null_words_.size()) null_words_.resize(r / 64 + 1, 0);
  null_words_[r / 64] |= uint64_t{1} << (r % 64);
}

void ColumnAnswer::Column::TurnToValues() {
  values_.reserve(ints_.capacity());
  for (size_t r = 0; r < ints_.size(); ++r) values_.push_back(cell(r));
  is_int_ = false;
  ints_ = {};
  null_words_ = {};
}

ColumnAnswer::ColumnAnswer(RelationSchema schema)
    : schema_(std::move(schema)),
      columns_(static_cast<size_t>(schema_.arity())) {}

ColumnAnswer::ColumnAnswer(const Relation& rows) : ColumnAnswer(rows.schema()) {
  Reserve(static_cast<size_t>(rows.size()));
  for (const Tuple& row : rows) {
    AppendRow([&](size_t c) -> const Value& { return row.values()[c]; });
  }
}

void ColumnAnswer::Reserve(size_t rows) {
  for (Column& column : columns_) column.Reserve(rows);
}

Relation ColumnAnswer::Materialize() const {
  Relation out(schema_);
  for (size_t r = 0; r < static_cast<size_t>(rows_); ++r) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (const Column& column : columns_) values.push_back(column.cell(r));
    out.AppendDistinct(Tuple(std::move(values)));
  }
  return out;
}

}  // namespace viewauth
