#include "engine/table_printer.h"

#include <algorithm>
#include <sstream>

namespace viewauth {

std::string PrintTable(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows,
                       const std::string& caption) {
  std::vector<size_t> widths(header.size(), 0);
  for (size_t i = 0; i < header.size(); ++i) {
    widths[i] = header[i].size();
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  if (!caption.empty()) out << caption << "\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      out << " " << cell << std::string(widths[i] - cell.size(), ' ')
          << " |";
    }
    out << "\n";
  };
  emit_row(header);
  out << "|";
  for (size_t width : widths) {
    out << std::string(width + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows) emit_row(row);
  return out.str();
}

std::string PrintRelation(const Relation& relation,
                          const TablePrintOptions& options) {
  std::vector<std::string> header;
  for (const Attribute& attr : relation.schema().attributes()) {
    header.push_back(attr.name);
  }
  std::vector<Tuple> data =
      options.sorted ? relation.SortedRows()
                     : std::vector<Tuple>(relation.begin(), relation.end());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(data.size());
  for (const Tuple& tuple : data) {
    std::vector<std::string> row;
    row.reserve(static_cast<size_t>(tuple.arity()));
    for (const Value& value : tuple.values()) {
      if (value.is_null()) {
        row.push_back(options.null_text);
      } else if (value.is_string()) {
        row.push_back(value.string_value());  // raw, no quoting
      } else {
        row.push_back(value.ToDisplayString(options.thousands_separators));
      }
    }
    rows.push_back(std::move(row));
  }
  return PrintTable(header, rows, options.caption);
}

}  // namespace viewauth
