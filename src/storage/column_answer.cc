#include "storage/column_answer.h"

namespace viewauth {

ColumnAnswer::ColumnAnswer(RelationSchema schema)
    : schema_(std::move(schema)),
      images_(static_cast<size_t>(schema_.arity())) {}

ColumnAnswer::ColumnAnswer(const Relation& rows) : ColumnAnswer(rows.schema()) {
  Reserve(static_cast<size_t>(rows.size()));
  for (const Tuple& row : rows) {
    AppendRow([&](size_t c) -> const Value& { return row.values()[c]; });
  }
}

void ColumnAnswer::Reserve(size_t rows) {
  for (std::vector<Value>& image : images_) image.reserve(image.size() + rows);
}

Relation ColumnAnswer::Materialize() const {
  Relation out(schema_);
  for (size_t r = 0; r < static_cast<size_t>(rows_); ++r) {
    std::vector<Value> values;
    values.reserve(images_.size());
    for (const std::vector<Value>& image : images_) values.push_back(image[r]);
    out.AppendDistinct(Tuple(std::move(values)));
  }
  return out;
}

}  // namespace viewauth
