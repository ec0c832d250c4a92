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

// A table's cells, rendered once into one arena in row-major order: cell
// k ends at ends[k]. widths[c] is the widest cell of column c, its header
// included.
struct Cells {
  explicit Cells(const std::vector<std::string_view>& header)
      : widths(header.size()) {
    for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  }
  // Ends the cell of column `c` that began at arena offset `start`.
  void End(size_t c, size_t start) {
    widths[c] = std::max(widths[c], arena.size() - start);
    ends.push_back(arena.size());
  }

  std::string arena;
  std::vector<size_t> ends;
  std::vector<size_t> widths;
};

// The one table layout: the caption (if any), the header, a dash line,
// then `rows` lines of cells, each padded to its column's width. Each
// line is "|" plus " cell<pad> |" per column plus "\n", so the output's
// size is known up front and every byte is written in place.
std::string WriteTable(const std::vector<std::string_view>& header,
                       const Cells& cells, size_t rows,
                       std::string_view caption) {
  const std::vector<size_t>& widths = cells.widths;
  size_t line = 2;
  for (size_t width : widths) line += width + 3;
  const size_t caption_size = caption.empty() ? 0 : caption.size() + 1;
  std::string out(caption_size + line * (rows + 2), ' ');
  char* cursor = out.data();
  auto put = [&cursor](std::string_view text) {
    std::memcpy(cursor, text.data(), text.size());
    cursor += text.size();
  };
  // Padding is already spaces: a cell writes its text and skips the rest.
  auto put_cell = [&](std::string_view cell, size_t c) {
    put(" ");
    put(cell);
    cursor += widths[c] - cell.size();
    put(" |");
  };
  if (caption_size != 0) {
    put(caption);
    put("\n");
  }
  put("|");
  for (size_t c = 0; c < header.size(); ++c) put_cell(header[c], c);
  put("\n|");
  for (size_t width : widths) {
    std::memset(cursor, '-', width + 2);
    cursor += width + 2;
    put("|");
  }
  put("\n");
  const std::string_view arena = cells.arena;
  size_t k = 0;
  size_t start = 0;
  for (size_t r = 0; r < rows; ++r) {
    put("|");
    for (size_t c = 0; c < header.size(); ++c, ++k) {
      put_cell(arena.substr(start, cells.ends[k] - start), c);
      start = cells.ends[k];
    }
    put("\n");
  }
  return out;
}

// The row numbers [0, rows) in Tuple's order of their rows:
// lexicographic over the cells, a shorter row first when one is a
// prefix of the other. `width(r)` is row r's cell count and `cell(r, c)`
// its c-th cell.
template <typename Width, typename CellAt>
std::vector<size_t> SortedRowNumbers(size_t rows, Width width, CellAt cell) {
  auto less = [&](size_t a, size_t b) {
    const size_t width_a = width(a);
    const size_t width_b = width(b);
    for (size_t c = 0; c < std::min(width_a, width_b); ++c) {
      const Value& x = cell(a, c);
      const Value& y = cell(b, c);
      if (x < y) return true;
      if (y < x) return false;
    }
    return width_a < width_b;
  };
  std::vector<size_t> order(rows);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), less);
  return order;
}

// The one relation renderer, over any row store: `width(r)` is row r's
// cell count and `cell(r, c)` its c-th cell. Row numbers sort, never
// the rows. Every cell then renders once into the arena; a row shorter
// than the header leaves blank cells, and cells past the header are not
// shown.
template <typename Width, typename CellAt>
std::string RenderRows(const RelationSchema& schema, size_t rows, Width width,
                       CellAt cell, const TablePrintOptions& options) {
  std::vector<std::string_view> names;
  for (const Attribute& attr : schema.attributes()) names.push_back(attr.name);

  std::vector<size_t> order;
  if (options.sorted) {
    order = SortedRowNumbers(rows, width, cell);
  } else {
    order.resize(rows);
    std::iota(order.begin(), order.end(), size_t{0});
  }

  Cells cells(names);
  cells.ends.reserve(rows * names.size());
  for (size_t r : order) {
    const size_t row_width = width(r);
    for (size_t c = 0; c < names.size(); ++c) {
      const size_t start = cells.arena.size();
      if (c < row_width) {
        const Value& value = cell(r, c);
        if (value.is_null()) {
          cells.arena += options.null_text;
        } else if (value.is_int64() && options.thousands_separators) {
          AppendWithCommas(value.int64_value(), &cells.arena);
        } else if (value.is_string()) {
          cells.arena += value.string_value();  // raw, no quoting
        } else {
          cells.arena += value.ToString();
        }
      }
      cells.End(c, start);
    }
  }
  return WriteTable(names, cells, rows, options.caption);
}

}  // namespace

std::string PrintTable(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows,
                       const std::string& caption) {
  const std::vector<std::string_view> names(header.begin(), header.end());
  Cells cells(names);
  cells.ends.reserve(rows.size() * names.size());
  // A short row leaves blank cells; cells past the header are not shown.
  for (const auto& row : rows) {
    for (size_t c = 0; c < names.size(); ++c) {
      const size_t start = cells.arena.size();
      if (c < row.size()) cells.arena += row[c];
      cells.End(c, start);
    }
  }
  return WriteTable(names, cells, rows.size(), caption);
}

std::string PrintRelation(const Relation& relation,
                          const TablePrintOptions& options) {
  return RenderRows(
      relation.schema(), static_cast<size_t>(relation.size()),
      [&](size_t r) {
        return relation.row(static_cast<RowId>(r)).values().size();
      },
      [&](size_t r, size_t c) -> const Value& {
        return relation.row(static_cast<RowId>(r)).values()[c];
      },
      options);
}

std::string PrintRelation(const ColumnAnswer& answer,
                          const TablePrintOptions& options) {
  const auto arity = static_cast<size_t>(answer.arity());
  return RenderRows(
      answer.schema(), static_cast<size_t>(answer.size()),
      [arity](size_t) { return arity; },
      [&](size_t r, size_t c) -> const Value& { return answer.cell(r, c); },
      options);
}

}  // namespace viewauth
