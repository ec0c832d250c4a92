// ASCII table rendering for relations and query results, in the style of
// the paper's figures (withheld cells print as "-", integers may use
// thousands separators).

#ifndef VIEWAUTH_ENGINE_TABLE_PRINTER_H_
#define VIEWAUTH_ENGINE_TABLE_PRINTER_H_

#include <string>
#include <string_view>

#include "storage/column_answer.h"
#include "storage/relation.h"

namespace viewauth {

struct TablePrintOptions {
  bool thousands_separators = true;
  // How withheld (NULL) cells render.
  std::string null_text = "-";
  // Print rows in sorted order for deterministic output.
  bool sorted = true;
  // Optional caption printed above the table.
  std::string caption;
  // Text written verbatim after the table's last line (a retrieve's
  // permit statements), so a reply is sized and written once.
  std::string_view trailer;
};

// Both overloads render through one body and print equal rows
// identically; the second reads a delivered answer's column images,
// sorting and formatting integer images as integers.
std::string PrintRelation(const Relation& relation,
                          const TablePrintOptions& options = {});
std::string PrintRelation(const ColumnAnswer& answer,
                          const TablePrintOptions& options = {});

}  // namespace viewauth

#endif  // VIEWAUTH_ENGINE_TABLE_PRINTER_H_
