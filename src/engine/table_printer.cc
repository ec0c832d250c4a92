#include "engine/table_printer.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>

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
  std::vector<std::string_view> names;
  for (const Attribute& attr : relation.schema().attributes()) {
    names.push_back(attr.name);
  }

  // Row ids sort, never copies of the tuples.
  std::vector<RowId> order(static_cast<size_t>(relation.size()));
  std::iota(order.begin(), order.end(), RowId{0});
  if (options.sorted) {
    std::sort(order.begin(), order.end(), [&](RowId a, RowId b) {
      return relation.row(a) < relation.row(b);
    });
  }

  // Every cell renders once into the arena. A tuple shorter than the
  // header leaves blank cells, and cells past the header are not shown.
  Cells cells(names);
  cells.ends.reserve(order.size() * names.size());
  for (RowId id : order) {
    const std::vector<Value>& values = relation.row(id).values();
    for (size_t c = 0; c < names.size(); ++c) {
      const size_t start = cells.arena.size();
      if (c < values.size()) {
        const Value& value = values[c];
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
  return WriteTable(names, cells, order.size(), options.caption);
}

}  // namespace viewauth
