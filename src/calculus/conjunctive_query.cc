#include "calculus/conjunctive_query.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/str_util.h"

namespace viewauth {

namespace {

bool TypesComparable(ValueType a, ValueType b) {
  auto numeric = [](ValueType t) {
    return t == ValueType::kInt64 || t == ValueType::kDouble;
  };
  return (numeric(a) && numeric(b)) ||
         (a == ValueType::kString && b == ValueType::kString);
}

ValueType TypeOfValue(const Value& v) {
  return v.is_null() ? ValueType::kString : v.type();
}

}  // namespace

Result<ConjunctiveQuery> ConjunctiveQuery::Build(
    const DatabaseSchema& schema, std::string name,
    const std::vector<AttributeRef>& targets,
    const std::vector<Condition>& conditions) {
  ConjunctiveQuery query;
  query.name_ = std::move(name);

  if (targets.empty()) {
    return Status::InvalidArgument(query.name_ +
                                   ": target list must be nonempty");
  }

  // Pass 1: collect every (relation, occurrence) pair mentioned anywhere.
  std::map<std::pair<std::string, int>, int> atom_index;
  auto note_occurrence = [&](const AttributeRef& ref) -> Status {
    if (!schema.HasRelation(ref.relation)) {
      return Status::NotFound(query.name_ + ": relation '" + ref.relation +
                              "' does not exist");
    }
    if (ref.occurrence < 1) {
      return Status::InvalidArgument(query.name_ +
                                     ": occurrence numbers are 1-based");
    }
    atom_index.emplace(std::make_pair(ref.relation, ref.occurrence), 0);
    return Status::OK();
  };
  for (const AttributeRef& ref : targets) {
    VIEWAUTH_RETURN_NOT_OK(note_occurrence(ref));
  }
  for (const Condition& cond : conditions) {
    VIEWAUTH_RETURN_NOT_OK(note_occurrence(cond.lhs));
    if (cond.rhs.is_attribute) {
      VIEWAUTH_RETURN_NOT_OK(note_occurrence(cond.rhs.attribute));
    }
  }

  // Occurrence numbers of the same relation must be dense starting at 1
  // (using EMPLOYEE:2 without EMPLOYEE:1 is almost certainly a typo).
  {
    std::map<std::string, std::vector<int>> by_relation;
    for (const auto& [key, unused] : atom_index) {
      (void)unused;
      by_relation[key.first].push_back(key.second);
    }
    for (const auto& [relation, occurrences] : by_relation) {
      for (size_t i = 0; i < occurrences.size(); ++i) {
        if (occurrences[i] != static_cast<int>(i) + 1) {
          return Status::InvalidArgument(
              query.name_ + ": occurrences of relation '" + relation +
              "' must be numbered 1.." +
              std::to_string(occurrences.size()) + " without gaps");
        }
      }
    }
  }

  // Assign atom order: map iteration order (relation name, then
  // occurrence) is deterministic.
  for (auto& [key, index] : atom_index) {
    index = static_cast<int>(query.atoms_.size());
    query.atoms_.push_back(MembershipAtom{key.first, key.second});
    VIEWAUTH_ASSIGN_OR_RETURN(const RelationSchema* rel_schema,
                              schema.GetRelation(key.first));
    query.atom_schemas_.push_back(*rel_schema);
  }

  // Pass 2: resolve references.
  auto resolve = [&](const AttributeRef& ref) -> Result<ColumnRef> {
    int atom = atom_index.at(std::make_pair(ref.relation, ref.occurrence));
    const RelationSchema& rel_schema =
        query.atom_schemas_[static_cast<size_t>(atom)];
    int attr = rel_schema.AttributeIndex(ref.attribute);
    if (attr < 0) {
      return Status::NotFound(query.name_ + ": relation '" + ref.relation +
                              "' has no attribute '" + ref.attribute + "'");
    }
    return ColumnRef{atom, attr};
  };

  for (const AttributeRef& ref : targets) {
    VIEWAUTH_ASSIGN_OR_RETURN(ColumnRef col, resolve(ref));
    query.targets_.push_back(col);
  }

  for (const Condition& cond : conditions) {
    CalculusCondition cc;
    VIEWAUTH_ASSIGN_OR_RETURN(cc.lhs, resolve(cond.lhs));
    cc.op = cond.op;
    const ValueType lhs_type = query.ColumnType(cc.lhs);
    if (cond.rhs.is_attribute) {
      cc.rhs_is_column = true;
      VIEWAUTH_ASSIGN_OR_RETURN(cc.rhs_column, resolve(cond.rhs.attribute));
      const ValueType rhs_type = query.ColumnType(cc.rhs_column);
      if (!TypesComparable(lhs_type, rhs_type)) {
        return Status::SchemaMismatch(
            query.name_ + ": cannot compare " + cond.lhs.ToString() + " (" +
            std::string(ValueTypeToString(lhs_type)) + ") with " +
            cond.rhs.attribute.ToString() + " (" +
            std::string(ValueTypeToString(rhs_type)) + ")");
      }
    } else {
      cc.rhs_const = cond.rhs.constant;
      if (!TypesComparable(lhs_type, TypeOfValue(cc.rhs_const))) {
        return Status::SchemaMismatch(
            query.name_ + ": cannot compare " + cond.lhs.ToString() + " (" +
            std::string(ValueTypeToString(lhs_type)) + ") with constant " +
            cc.rhs_const.ToDisplayString(false));
      }
    }
    query.conditions_.push_back(std::move(cc));
  }

  return query;
}

int ConjunctiveQuery::FlatIndex(const ColumnRef& ref) const {
  int offset = 0;
  for (int i = 0; i < ref.atom; ++i) {
    offset += atom_schemas_[static_cast<size_t>(i)].arity();
  }
  return offset + ref.attr;
}

int ConjunctiveQuery::TotalColumns() const {
  int total = 0;
  for (const RelationSchema& s : atom_schemas_) total += s.arity();
  return total;
}

std::vector<std::string> ConjunctiveQuery::ProductColumnNames() const {
  // Count relation name usage to decide qualification.
  std::map<std::string, int> relation_count;
  for (const MembershipAtom& atom : atoms_) ++relation_count[atom.relation];
  std::vector<std::string> names;
  names.reserve(TotalColumns());
  for (size_t i = 0; i < atoms_.size(); ++i) {
    const MembershipAtom& atom = atoms_[i];
    std::string prefix = atom.relation;
    if (relation_count[atom.relation] > 1) {
      prefix += ":" + std::to_string(atom.occurrence);
    }
    for (const Attribute& attr : atom_schemas_[i].attributes()) {
      if (atoms_.size() == 1) {
        names.push_back(attr.name);
      } else {
        names.push_back(prefix + "." + attr.name);
      }
    }
  }
  return names;
}

std::vector<std::string> ConjunctiveQuery::OutputColumnNames() const {
  // Base names; disambiguate duplicates with :i suffixes (paper's A:i).
  std::vector<std::string> base;
  base.reserve(targets_.size());
  for (const ColumnRef& ref : targets_) {
    base.push_back(atom_schemas_[static_cast<size_t>(ref.atom)]
                       .attribute(ref.attr)
                       .name);
  }
  std::map<std::string, int> total;
  for (const std::string& n : base) ++total[n];
  std::map<std::string, int> seen;
  std::vector<std::string> names;
  names.reserve(base.size());
  for (const std::string& n : base) {
    if (total[n] > 1) {
      names.push_back(n + ":" + std::to_string(++seen[n]));
    } else {
      names.push_back(n);
    }
  }
  return names;
}

std::vector<ValueType> ConjunctiveQuery::OutputColumnTypes() const {
  std::vector<ValueType> types;
  types.reserve(targets_.size());
  for (const ColumnRef& ref : targets_) {
    types.push_back(ColumnType(ref));
  }
  return types;
}

Result<RelationSchema> ConjunctiveQuery::OutputSchema(
    std::string relation_name) const {
  std::vector<Attribute> attributes;
  std::vector<std::string> names = OutputColumnNames();
  std::vector<ValueType> types = OutputColumnTypes();
  for (size_t i = 0; i < names.size(); ++i) {
    attributes.push_back(Attribute{names[i], types[i]});
  }
  return RelationSchema::Make(std::move(relation_name),
                              std::move(attributes));
}

bool ConjunctiveQuery::ProjectsDistinctRows() const {
  for (size_t a = 0; a < atoms_.size(); ++a) {
    const RelationSchema& schema = atom_schemas_[a];
    std::vector<bool> kept(static_cast<size_t>(schema.arity()), false);
    for (const ColumnRef& ref : targets_) {
      if (ref.atom == static_cast<int>(a)) {
        kept[static_cast<size_t>(ref.attr)] = true;
      }
    }
    if (schema.has_key()) {
      for (int c : schema.key()) {
        if (!kept[static_cast<size_t>(c)]) return false;
      }
    } else if (std::find(kept.begin(), kept.end(), false) != kept.end()) {
      return false;
    }
  }
  return true;
}

ValueType ConjunctiveQuery::ColumnType(const ColumnRef& ref) const {
  return atom_schemas_[static_cast<size_t>(ref.atom)]
      .attribute(ref.attr)
      .type;
}

ConjunctiveQuery ConjunctiveQuery::WithAllColumnsProjected() const {
  ConjunctiveQuery wide = *this;
  wide.targets_.clear();
  for (size_t a = 0; a < atoms_.size(); ++a) {
    for (int i = 0; i < atom_schemas_[a].arity(); ++i) {
      wide.targets_.push_back(ColumnRef{static_cast<int>(a), i});
    }
  }
  return wide;
}

std::string ConjunctiveQuery::CanonicalSignature() const {
  std::vector<std::string> labels;
  for (const CalculusCondition& c : conditions_) {
    if (c.rhs_is_column) continue;
    // Type-tagged so that int 5 and string "5" cannot collide.
    std::string label(ValueTypeToString(c.rhs_const.type()));
    label += ':';
    label += c.rhs_const.ToDisplayString(false);
    labels.push_back(std::move(label));
  }
  return SignatureWith(labels);
}

std::string ConjunctiveQuery::SignatureWith(
    const std::vector<std::string>& labels) const {
  // Built by appending: the authorization cache computes a signature on
  // every retrieve.
  std::string out;
  for (const MembershipAtom& atom : atoms_) {
    out += atom.relation;
    out += ':';
    out += std::to_string(atom.occurrence);
    out += ';';
  }
  out += "|t:";
  for (const ColumnRef& ref : targets_) {
    out += std::to_string(FlatIndex(ref));
    out += ',';
  }
  out += "|c:";
  size_t next_label = 0;
  for (const CalculusCondition& c : conditions_) {
    out += std::to_string(FlatIndex(c.lhs));
    out += ' ';
    out += ComparatorToString(c.op);
    out += ' ';
    if (c.rhs_is_column) {
      out += '#';
      out += std::to_string(FlatIndex(c.rhs_column));
    } else {
      out += labels.at(next_label++);
    }
    out += ';';
  }
  return out;
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream out;
  out << name_ << ": atoms [";
  std::vector<std::string> atom_names;
  for (const MembershipAtom& atom : atoms_) {
    atom_names.push_back(atom.relation + ":" +
                         std::to_string(atom.occurrence));
  }
  out << Join(atom_names, ", ") << "], targets [";
  std::vector<std::string> target_names;
  std::vector<std::string> product_names = ProductColumnNames();
  for (const ColumnRef& ref : targets_) {
    target_names.push_back(product_names[FlatIndex(ref)]);
  }
  out << Join(target_names, ", ") << "]";
  if (!conditions_.empty()) {
    out << " where ";
    std::vector<std::string> cond_strs;
    for (const CalculusCondition& c : conditions_) {
      std::ostringstream cs;
      cs << product_names[FlatIndex(c.lhs)] << " "
         << ComparatorToString(c.op) << " ";
      if (c.rhs_is_column) {
        cs << product_names[FlatIndex(c.rhs_column)];
      } else {
        cs << c.rhs_const.ToDisplayString(false);
      }
      cond_strs.push_back(cs.str());
    }
    out << Join(cond_strs, " and ");
  }
  return out.str();
}

}  // namespace viewauth
