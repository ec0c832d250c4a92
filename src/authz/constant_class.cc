#include "authz/constant_class.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace viewauth {

namespace {

// Int64 constants beyond this magnitude lose precision when the solver
// widens them to doubles for integer tightening; they keep exact keys.
constexpr int64_t kMaxClassMagnitude = int64_t{1} << 52;

// A union-find over small dense ids.
class Components {
 public:
  int Add() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return parent_.back();
  }
  int Find(int x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<int> parent_;
};

bool NearFree(const Value& constant, const std::vector<Value>& free) {
  for (const Value& q : free) {
    if (q.is_string()) {
      if (constant.is_string() &&
          constant.string_value() == q.string_value()) {
        return true;
      }
    } else if (constant.is_numeric() &&
               std::fabs(constant.AsDouble() - q.AsDouble()) <=
                   static_cast<double>(kClassGuard)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ConstantClass::Admits(const MetaRelation& mask) const {
  for (const MetaTuple& tuple : mask.tuples()) {
    for (const MetaCell& cell : tuple.cells()) {
      if (cell.kind == CellKind::kConst && NearFree(cell.constant, free)) {
        return false;
      }
    }
    for (const ConstraintAtom& atom : tuple.constraints().source_atoms()) {
      if (!atom.rhs_is_term && NearFree(atom.rhs_const, free)) return false;
    }
  }
  return true;
}

ConstantProfile ConstantProfile::Build(
    const std::map<std::string, std::shared_ptr<const MetaRelation>>&
        prepared) {
  // Nodes: one per relation attribute, one per variable. Variable ids are
  // global, so a variable shared by the meta-tuples of two relations
  // links their attributes.
  Components nodes;
  std::map<std::string, std::vector<int>> attribute_node;
  std::map<VarId, int> var_node;
  std::vector<std::pair<int, Value>> node_constants;
  auto var = [&](VarId v) {
    auto [it, inserted] = var_node.emplace(v, 0);
    if (inserted) it->second = nodes.Add();
    return it->second;
  };
  for (const auto& [relation, meta] : prepared) {
    std::vector<int>& columns = attribute_node[relation];
    for (int i = 0; i < meta->arity(); ++i) columns.push_back(nodes.Add());
    for (const MetaTuple& tuple : meta->tuples()) {
      for (int i = 0; i < tuple.arity(); ++i) {
        const MetaCell& cell = tuple.cells()[i];
        if (cell.kind == CellKind::kVar) {
          nodes.Union(columns[i], var(cell.var));
        } else if (cell.kind == CellKind::kConst) {
          node_constants.emplace_back(columns[i], cell.constant);
        }
      }
      for (const ConstraintAtom& atom : tuple.constraints().source_atoms()) {
        if (atom.rhs_is_term) {
          nodes.Union(var(atom.lhs), var(atom.rhs_term));
        } else {
          node_constants.emplace_back(var(atom.lhs), atom.rhs_const);
        }
      }
    }
  }

  // Number the components that hold an attribute; constants of
  // variables linked to no attribute are never compared with a query
  // constant, so they are dropped.
  ConstantProfile profile;
  std::map<int, int> component_of_root;
  for (const auto& [relation, columns] : attribute_node) {
    std::vector<int>& components = profile.component_[relation];
    for (int node : columns) {
      auto [it, inserted] = component_of_root.emplace(
          nodes.Find(node), static_cast<int>(component_of_root.size()));
      components.push_back(it->second);
    }
  }
  profile.constants_.resize(component_of_root.size());
  for (const auto& [node, constant] : node_constants) {
    auto it = component_of_root.find(nodes.Find(node));
    if (it != component_of_root.end()) {
      profile.constants_[it->second].push_back(constant);
    }
  }
  for (std::vector<Value>& constants : profile.constants_) {
    std::sort(constants.begin(), constants.end());
    constants.erase(std::unique(constants.begin(), constants.end()),
                    constants.end());
  }
  return profile;
}

std::optional<ConstantClass> ConstantProfile::ClassOf(
    const ConjunctiveQuery& query) const {
  // Each product column's profile component; the query's column-column
  // conditions merge components. A column the profile does not know (no
  // prepared meta-relation) gets a component of its own, without
  // constants.
  const int known = static_cast<int>(constants_.size());
  Components merged;
  for (int c = 0; c < known; ++c) merged.Add();
  std::vector<int> column_component;
  column_component.reserve(static_cast<size_t>(query.TotalColumns()));
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    auto it = component_.find(query.atoms()[a].relation);
    const int arity = query.atom_schema(static_cast<int>(a)).arity();
    for (int i = 0; i < arity; ++i) {
      column_component.push_back(
          it != component_.end() && i < static_cast<int>(it->second.size())
              ? it->second[static_cast<size_t>(i)]
              : merged.Add());
    }
  }
  for (const CalculusCondition& cond : query.conditions()) {
    if (cond.rhs_is_column) {
      merged.Union(column_component[query.FlatIndex(cond.lhs)],
                   column_component[query.FlatIndex(cond.rhs_column)]);
    }
  }

  // The query's constants, each with its merged component.
  struct Constant {
    int component;
    const Value* value;
  };
  std::vector<Constant> constants;
  for (const CalculusCondition& cond : query.conditions()) {
    if (cond.rhs_is_column) continue;
    const Value& value = cond.rhs_const;
    if (!value.is_string() &&
        !(value.is_int64() && value.int64_value() <= kMaxClassMagnitude &&
          value.int64_value() >= -kMaxClassMagnitude)) {
      return std::nullopt;
    }
    constants.push_back(
        {merged.Find(column_component[query.FlatIndex(cond.lhs)]), &value});
  }
  if (constants.empty()) return std::nullopt;

  ConstantClass out;
  std::vector<std::string> labels;
  labels.reserve(constants.size());
  std::vector<const Value*> lower;
  for (const Constant& constant : constants) {
    const Value& q = *constant.value;
    // The position among the comparable view constants of every profile
    // component merged into this one.
    int below = 0;
    bool fixed = false;
    for (int c = 0; c < known; ++c) {
      if (merged.Find(c) != constant.component) continue;
      for (const Value& v : constants_[static_cast<size_t>(c)]) {
        if (q.is_string()) {
          if (!v.is_string()) continue;
          const int cmp = v.string_value().compare(q.string_value());
          below += cmp < 0 ? 1 : 0;
          fixed = fixed || cmp == 0;
        } else {
          if (!v.is_numeric()) continue;
          const double gap =
              v.AsDouble() - static_cast<double>(q.int64_value());
          if (std::fabs(gap) <= static_cast<double>(kClassGuard)) {
            return std::nullopt;
          }
          below += gap < 0 ? 1 : 0;
        }
      }
    }
    // The order among the query constants of the same component and
    // kind: how many distinct ones lie below, and the gap to the nearest
    // one below.
    lower.clear();
    for (const Constant& other : constants) {
      const Value& o = *other.value;
      if (other.component == constant.component &&
          o.is_string() == q.is_string() && o < q) {
        lower.push_back(&o);
      }
    }
    std::sort(lower.begin(), lower.end(),
              [](const Value* a, const Value* b) { return *a < *b; });
    lower.erase(std::unique(lower.begin(), lower.end(),
                            [](const Value* a, const Value* b) {
                              return *a == *b;
                            }),
                lower.end());
    std::string label = "@";
    label += q.is_string() ? 's' : 'i';
    label += fixed ? '=' : '<';
    label += std::to_string(below);
    label += 'r';
    label += std::to_string(lower.size());
    if (!lower.empty() && !q.is_string()) {
      const int64_t gap = q.int64_value() - lower.back()->int64_value();
      label += gap <= kClassGuard ? "+" + std::to_string(gap) : "+far";
    }
    labels.push_back(std::move(label));
    if (!fixed) out.free.push_back(q);
  }
  out.signature = query.SignatureWith(labels);
  return out;
}

}  // namespace viewauth
