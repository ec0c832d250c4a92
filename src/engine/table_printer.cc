#include "engine/table_printer.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"

namespace viewauth {

namespace {

// The one table layout: the caption (if any), the header, a dash line,
// `rows` lines of cells, each padded to its column's width (`widths[c]`,
// the header included), then the trailer. Each line is "|" plus
// " cell<pad> |" per column plus "\n", so the output's size is known up
// front and every byte is written in place: `write_cell(i, c, at)`
// writes cell c of the i-th line at `at`, in at most widths[c] bytes.
template <typename WriteCell>
std::string WriteTable(const std::vector<std::string_view>& header,
                       const std::vector<size_t>& widths, size_t rows,
                       std::string_view caption, std::string_view trailer,
                       WriteCell write_cell) {
  size_t line = 2;
  for (size_t width : widths) line += width + 3;
  const size_t caption_size = caption.empty() ? 0 : caption.size() + 1;
  std::string out(caption_size + line * (rows + 2) + trailer.size(), ' ');
  char* cursor = out.data();
  auto put = [&cursor](std::string_view text) {
    if (text.empty()) return;  // an empty view's data() may be null
    std::memcpy(cursor, text.data(), text.size());
    cursor += text.size();
  };
  if (caption_size != 0) {
    put(caption);
    put("\n");
  }
  // Padding is already spaces: a cell writes its text and skips the rest.
  put("|");
  for (size_t c = 0; c < header.size(); ++c) {
    std::memcpy(cursor + 1, header[c].data(), header[c].size());
    cursor += widths[c] + 1;
    put(" |");
  }
  put("\n|");
  for (size_t width : widths) {
    std::memset(cursor, '-', width + 2);
    cursor += width + 2;
    put("|");
  }
  put("\n");
  for (size_t i = 0; i < rows; ++i) {
    put("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      write_cell(i, c, cursor + 1);
      cursor += widths[c] + 1;
      put(" |");
    }
    put("\n");
  }
  put(trailer);
  return out;
}

// A column as the renderer reads it: an integer image's integers, and
// the column for the NULL test when any of them is NULL; or no integers,
// for a column read cell by cell.
struct IntImage {
  const int64_t* ints = nullptr;
  const ColumnAnswer::Column* nullable = nullptr;
  bool is_null(size_t r) const {
    return nullable != nullptr && nullable->is_null(r);
  }
};

// A Relation as the renderer reads it: every cell is a Value, and a row
// may hold more or fewer cells than the header.
class RelationRows {
 public:
  explicit RelationRows(const Relation& relation) : relation_(relation) {}
  size_t size() const { return static_cast<size_t>(relation_.size()); }
  size_t width(size_t r) const { return row(r).size(); }
  IntImage image(size_t) const { return {}; }
  const Value& value(size_t r, size_t c) const { return row(r)[c]; }

 private:
  const std::vector<Value>& row(size_t r) const {
    return relation_.row(static_cast<RowId>(r)).values();
  }
  const Relation& relation_;
};

// A delivered answer as the renderer reads it: integer images whole,
// every other column cell by cell.
class AnswerRows {
 public:
  explicit AnswerRows(const ColumnAnswer& answer) : answer_(answer) {}
  size_t size() const { return static_cast<size_t>(answer_.size()); }
  size_t width(size_t) const { return static_cast<size_t>(answer_.arity()); }
  IntImage image(size_t c) const {
    const ColumnAnswer::Column& column = answer_.column(c);
    if (!column.is_int()) return {};
    return {column.ints().data(), column.has_nulls() ? &column : nullptr};
  }
  const Value& value(size_t r, size_t c) const {
    return answer_.column(c).values()[r];
  }

 private:
  const ColumnAnswer& answer_;
};

// The row numbers [0, rows.size()) in Tuple's order of their rows:
// lexicographic over the cells, a shorter row first when one is a
// prefix of the other. Integer images compare as integers, NULL first,
// which is Value's order on their cells.
template <typename Rows>
std::vector<size_t> SortedRowNumbers(const Rows& rows,
                                     const std::vector<IntImage>& images) {
  auto row_less = [&](size_t a, size_t b) {
    const size_t width_a = rows.width(a);
    const size_t width_b = rows.width(b);
    for (size_t c = 0; c < std::min(width_a, width_b); ++c) {
      if (c < images.size() && images[c].ints != nullptr) {
        const IntImage& image = images[c];
        const bool null_a = image.is_null(a);
        if (null_a != image.is_null(b)) return null_a;
        if (null_a) continue;
        const int64_t x = image.ints[a];
        const int64_t y = image.ints[b];
        if (x != y) return x < y;
        continue;
      }
      const Value& x = rows.value(a, c);
      const Value& y = rows.value(b, c);
      if (x < y) return true;
      if (y < x) return false;
    }
    return width_a < width_b;
  };
  // Most pairs differ in a leading integer image without NULLs, and are
  // ordered by it without entering the general loop.
  const int64_t* lead = nullptr;
  if (!images.empty() && images[0].nullable == nullptr) lead = images[0].ints;
  auto less = [&](size_t a, size_t b) {
    if (lead != nullptr && lead[a] != lead[b]) return lead[a] < lead[b];
    return row_less(a, b);
  };
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), less);
  return order;
}

// The one relation renderer, over either row store. Row numbers sort,
// never the rows. An integer image's width comes from the digit counts
// of its least and greatest integer, and its cells are written with
// their separators straight into the output; any other cell is measured
// as it will print, and only a cell that is neither NULL, string nor
// Int64 (a double) renders to a string of its own. A row shorter than
// the header leaves blank cells, and cells past the header are not
// shown.
template <typename Rows>
std::string RenderRows(const RelationSchema& schema, const Rows& rows,
                       const TablePrintOptions& options) {
  std::vector<std::string_view> names;
  for (const Attribute& attr : schema.attributes()) names.push_back(attr.name);
  const size_t columns = names.size();
  const bool commas = options.thousands_separators;
  const std::string_view null_text = options.null_text;
  std::vector<IntImage> images(columns);
  for (size_t c = 0; c < columns; ++c) images[c] = rows.image(c);

  std::vector<size_t> order;
  if (options.sorted) {
    order = SortedRowNumbers(rows, images);
  } else {
    order.resize(rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
  }

  std::vector<size_t> widths(columns);
  bool any_value_column = false;
  for (size_t c = 0; c < columns; ++c) {
    widths[c] = names[c].size();
    const IntImage& image = images[c];
    if (image.ints == nullptr) {
      any_value_column = true;
      continue;
    }
    int64_t least = INT64_MAX;
    int64_t greatest = INT64_MIN;
    bool any_null = false;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (image.is_null(r)) {
        any_null = true;
        continue;
      }
      least = std::min(least, image.ints[r]);
      greatest = std::max(greatest, image.ints[r]);
    }
    if (any_null) widths[c] = std::max(widths[c], null_text.size());
    if (least <= greatest) {
      widths[c] = std::max({widths[c], DecimalSize(least, commas),
                            DecimalSize(greatest, commas)});
    }
  }
  // Doubles' texts, in the order the cells are written below.
  std::vector<std::string> other_texts;
  if (any_value_column) {
    for (size_t r : order) {
      const size_t shown = std::min(rows.width(r), columns);
      for (size_t c = 0; c < shown; ++c) {
        if (images[c].ints != nullptr) continue;
        const Value& value = rows.value(r, c);
        size_t size;
        if (value.is_null()) {
          size = null_text.size();
        } else if (value.is_string()) {
          size = value.string_value().size();  // raw, no quoting
        } else if (value.is_int64()) {
          size = DecimalSize(value.int64_value(), commas);
        } else {
          other_texts.push_back(value.ToString());
          size = other_texts.back().size();
        }
        widths[c] = std::max(widths[c], size);
      }
    }
  }

  size_t next_other = 0;
  auto copy = [](std::string_view text, char* at) {
    std::memcpy(at, text.data(), text.size());
  };
  return WriteTable(
      names, widths, order.size(), options.caption, options.trailer,
      [&](size_t i, size_t c, char* at) {
        const size_t r = order[i];
        const IntImage& image = images[c];
        if (image.ints != nullptr) {
          if (image.is_null(r)) {
            copy(null_text, at);
          } else {
            WriteDecimal(image.ints[r], commas, at);
          }
          return;
        }
        if (c >= rows.width(r)) return;
        const Value& value = rows.value(r, c);
        if (value.is_null()) {
          copy(null_text, at);
        } else if (value.is_string()) {
          copy(value.string_value(), at);
        } else if (value.is_int64()) {
          WriteDecimal(value.int64_value(), commas, at);
        } else {
          copy(other_texts[next_other++], at);
        }
      });
}

}  // namespace

std::string PrintRelation(const Relation& relation,
                          const TablePrintOptions& options) {
  return RenderRows(relation.schema(), RelationRows(relation), options);
}

std::string PrintRelation(const ColumnAnswer& answer,
                          const TablePrintOptions& options) {
  return RenderRows(answer.schema(), AnswerRows(answer), options);
}

}  // namespace viewauth
