#include "meta/meta_tuple.h"

#include <algorithm>
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

std::string MetaTuple::StructuralKey(bool include_provenance) const {
  std::ostringstream out;
  // Cells, with variables renamed to their first-occurrence index so that
  // alpha-equivalent tuples collide. Variable identity across *different*
  // tuples matters for joins, so the key also appends the exported
  // constraints using the same local names.
  std::map<VarId, int> local;
  auto local_name = [&local](VarId v) {
    auto it = local.find(v);
    if (it == local.end()) {
      it = local.emplace(v, static_cast<int>(local.size())).first;
    }
    return "v" + std::to_string(it->second);
  };
  for (const MetaCell& cell : cells_) {
    out << cell.ToString(local_name) << "|";
  }
  // Constraints over cell vars only, in canonical (sorted) text form.
  std::set<VarId> vars = CellVars();
  std::vector<TermId> terms(vars.begin(), vars.end());
  std::vector<std::string> atom_strs;
  for (const ConstraintAtom& atom : constraints_.ExportAtoms(terms)) {
    atom_strs.push_back(atom.ToString(local_name));
  }
  std::sort(atom_strs.begin(), atom_strs.end());
  out << "#" << Join(atom_strs, "&");
  // Provenance: tuples with identical cells but different atom coverage
  // are NOT interchangeable — one may dangle in a later product where the
  // other does not (e.g. the two EST self-join tuples of Example 3).
  if (include_provenance) {
    out << '@';
    for (AtomId atom : origin_atoms_) out << atom << ",";
    out << '@';
    for (VarId var : CellVars()) {
      auto it = var_atoms_.find(var);
      if (it == var_atoms_.end()) continue;
      out << local_name(var) << ":";
      for (AtomId atom : it->second) out << atom << ",";
      out << ";";
    }
  }
  return out.str();
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
