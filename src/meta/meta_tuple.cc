#include "meta/meta_tuple.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "common/str_util.h"

namespace viewauth {

bool MetaCell::operator==(const MetaCell& other) const {
  if (kind != other.kind || projected != other.projected) return false;
  switch (kind) {
    case CellKind::kBlank:
      return true;
    case CellKind::kConst:
      return constant == other.constant;
    case CellKind::kVar:
      return var == other.var;
  }
  return false;
}

std::string MetaCell::ToString(
    const std::function<std::string(VarId)>& var_namer) const {
  std::string out;
  switch (kind) {
    case CellKind::kBlank:
      break;
    case CellKind::kConst:
      out = constant.ToDisplayString(/*commas=*/false);
      break;
    case CellKind::kVar:
      out = var_namer(var);
      break;
  }
  if (projected) out += "*";
  return out;
}

std::set<VarId> MetaTuple::CellVars() const {
  std::set<VarId> vars;
  for (const MetaCell& cell : cells_) {
    if (cell.kind == CellKind::kVar) vars.insert(cell.var);
  }
  return vars;
}

std::vector<int> MetaTuple::CellsOfVar(VarId var) const {
  std::vector<int> positions;
  for (int i = 0; i < arity(); ++i) {
    if (cells_[i].kind == CellKind::kVar && cells_[i].var == var) {
      positions.push_back(i);
    }
  }
  return positions;
}

bool MetaTuple::HasDanglingVariable() const {
  for (VarId var : CellVars()) {
    auto it = var_atoms_.find(var);
    if (it == var_atoms_.end()) continue;  // synthetic variable: never dangles
    for (AtomId atom : it->second) {
      if (!origin_atoms_.contains(atom)) return true;
    }
  }
  return false;
}

void MetaTuple::ClearVariable(VarId var) {
  for (MetaCell& cell : cells_) {
    if (cell.kind == CellKind::kVar && cell.var == var) {
      bool starred = cell.projected;
      cell = MetaCell::Blank(starred);
    }
  }
  constraints_.ForgetTerm(var);
  var_atoms_.erase(var);
}

std::string MetaTuple::ViewLabel() const {
  return Join(views_, ",");
}

namespace {

void AppendInt(long long value, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Type tag plus value: "i5", "d0.5", "s4:Acme", "n" (NULL). Strings are
// length-prefixed, so their contents can never be mistaken for key
// structure.
void AppendValue(const Value& value, std::string* out) {
  if (value.is_int64()) {
    out->push_back('i');
    AppendInt(value.int64_value(), out);
  } else if (value.is_double()) {
    // Shortest round-trip form: distinct doubles get distinct text.
    char buf[32];
    out->push_back('d');
    out->append(buf,
                std::to_chars(buf, buf + sizeof(buf), value.double_value())
                    .ptr);
  } else if (value.is_string()) {
    const std::string& text = value.string_value();
    out->push_back('s');
    AppendInt(static_cast<long long>(text.size()), out);
    out->push_back(':');
    out->append(text);
  } else {
    out->push_back('n');
  }
}

// Local variable numbering: a variable's index is its first occurrence.
// Tuples have a handful of variables, so a flat vector beats a map.
class LocalVars {
 public:
  int IndexOf(VarId var) {
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i] == var) return static_cast<int>(i);
    }
    vars_.push_back(var);
    return static_cast<int>(vars_.size()) - 1;
  }
  void Append(VarId var, std::string* out) {
    out->push_back('v');
    AppendInt(IndexOf(var), out);
  }
  const std::vector<VarId>& vars() const { return vars_; }

 private:
  std::vector<VarId> vars_;
};

void AppendKey(const MetaTuple& tuple, bool stars, bool provenance,
               std::string* out) {
  LocalVars local;
  for (const MetaCell& cell : tuple.cells()) {
    if (cell.kind == CellKind::kConst) {
      AppendValue(cell.constant, out);
    } else if (cell.kind == CellKind::kVar) {
      local.Append(cell.var, out);
    }
    if (stars && cell.projected) out->push_back('*');
    out->push_back('|');
  }
  // Constraints over cell variables only, each atom encoded with the same
  // local numbering; the atoms are sorted so that their export order does
  // not matter.
  std::vector<TermId> cell_vars = local.vars();
  std::sort(cell_vars.begin(), cell_vars.end());
  out->push_back('#');
  std::vector<ConstraintAtom> atoms =
      tuple.constraints().ExportAtoms(cell_vars);
  // An encoded atom ("v0 >= i250000") usually fits a short string's
  // inline buffer, so these allocate nothing.
  std::vector<std::string> encoded(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    const ConstraintAtom& atom = atoms[i];
    local.Append(atom.lhs, &encoded[i]);
    encoded[i].push_back(' ');
    encoded[i].append(ComparatorToString(atom.op));
    encoded[i].push_back(' ');
    if (atom.rhs_is_term) {
      local.Append(atom.rhs_term, &encoded[i]);
    } else {
      AppendValue(atom.rhs_const, &encoded[i]);
    }
  }
  std::sort(encoded.begin(), encoded.end());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (i > 0) out->push_back('&');
    out->append(encoded[i]);
  }
  // Provenance: tuples with identical cells but different atom coverage
  // are NOT interchangeable — one may dangle in a later product where the
  // other does not (e.g. the two EST self-join tuples of Example 3).
  if (provenance) {
    out->push_back('@');
    for (AtomId atom : tuple.origin_atoms()) {
      AppendInt(atom, out);
      out->push_back(',');
    }
    out->push_back('@');
    for (VarId var : cell_vars) {
      auto it = tuple.var_atoms().find(var);
      if (it == tuple.var_atoms().end()) continue;
      local.Append(var, out);
      out->push_back(':');
      for (AtomId atom : it->second) {
        AppendInt(atom, out);
        out->push_back(',');
      }
      out->push_back(';');
    }
  }
}

}  // namespace

std::string MetaTuple::StructuralKey(bool include_provenance) const {
  std::string key;
  AppendKey(*this, /*stars=*/true, include_provenance, &key);
  return key;
}

std::string MetaTuple::SelectionKey() const {
  std::string key;
  AppendKey(*this, /*stars=*/false, /*provenance=*/false, &key);
  return key;
}

std::string MetaTuple::ToString(
    const std::function<std::string(VarId)>& var_namer) const {
  std::vector<std::string> parts;
  parts.reserve(cells_.size());
  for (const MetaCell& cell : cells_) {
    parts.push_back(cell.ToString(var_namer));
  }
  return "(" + Join(parts, ", ") + ")";
}

std::string MetaRelation::ToString(
    const std::function<std::string(VarId)>& var_namer) const {
  std::ostringstream out;
  // Header.
  std::vector<std::string> header;
  header.push_back("VIEW");
  for (const Attribute& col : columns_) header.push_back(col.name);
  std::vector<std::vector<std::string>> rows;
  rows.push_back(std::move(header));
  for (const MetaTuple& tuple : tuples_) {
    std::vector<std::string> row;
    row.push_back(tuple.ViewLabel());
    for (const MetaCell& cell : tuple.cells()) {
      row.push_back(cell.ToString(var_namer));
    }
    rows.push_back(std::move(row));
  }
  // Column widths.
  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    out << "|";
    for (size_t i = 0; i < rows[r].size(); ++i) {
      out << " " << rows[r][i]
          << std::string(widths[i] - rows[r][i].size(), ' ') << " |";
    }
    out << "\n";
    if (r == 0) {
      out << "|";
      for (size_t i = 0; i < widths.size(); ++i) {
        out << std::string(widths[i] + 2, '-') << "|";
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string DefaultVarName(VarId var) { return "x" + std::to_string(var); }

}  // namespace viewauth
