#include "predicate/constraint.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/str_util.h"

namespace viewauth {

namespace {

// Unordered pair key with a canonical order.
std::pair<TermId, TermId> OrderedPair(TermId a, TermId b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

}  // namespace

bool ConstraintAtom::operator==(const ConstraintAtom& other) const {
  if (lhs != other.lhs || op != other.op ||
      rhs_is_term != other.rhs_is_term) {
    return false;
  }
  if (rhs_is_term) return rhs_term == other.rhs_term;
  return rhs_const == other.rhs_const;
}

std::string ConstraintAtom::ToString(
    const std::function<std::string(TermId)>& namer) const {
  std::ostringstream out;
  out << namer(lhs) << " " << ComparatorToString(op) << " ";
  if (rhs_is_term) {
    out << namer(rhs_term);
  } else {
    out << rhs_const.ToDisplayString(/*commas=*/false);
  }
  return out.str();
}

std::string_view TruthToString(Truth truth) {
  switch (truth) {
    case Truth::kFalse:
      return "false";
    case Truth::kTrue:
      return "true";
    case Truth::kUnknown:
      return "unknown";
  }
  return "?";
}

TermId ConstraintSet::Solved::Find(TermId t) {
  auto it = parent.find(t);
  if (it == parent.end()) {
    parent[t] = t;
    return t;
  }
  if (it->second == t) return t;
  TermId root = Find(it->second);
  parent[t] = root;
  return root;
}

TermId ConstraintSet::Solved::FindConst(TermId t) const {
  auto it = parent.find(t);
  while (it != parent.end() && it->second != t) {
    t = it->second;
    it = parent.find(t);
  }
  return t;
}

void ConstraintSet::DeclareTermType(TermId term, ValueType type) {
  term_types_[term] = type;
  solved_.reset();
}

void ConstraintSet::Add(const ConstraintAtom& atom) {
  atoms_.push_back(atom);
  solved_.reset();
}

void ConstraintSet::AddAll(const ConstraintSet& other) {
  for (const auto& [term, type] : other.term_types_) {
    term_types_.emplace(term, type);
  }
  for (const ConstraintAtom& atom : other.atoms_) {
    // Skip exact duplicates: meta-products repeatedly merge tuples that
    // carry the same view-level constraint store.
    if (std::find(atoms_.begin(), atoms_.end(), atom) == atoms_.end()) {
      atoms_.push_back(atom);
    }
  }
  solved_.reset();
}

namespace {

// Three-way compare of two bound endpoints; nullopt when incomparable.
std::optional<int> CompareValues(const Value& a, const Value& b) {
  return a.Compare(b);
}

}  // namespace

const ConstraintSet::Solved& ConstraintSet::Normalized() const {
  if (solved_.has_value()) return *solved_;
  Solved s;

  // Collect every mentioned term so union-find covers them all.
  auto touch = [&s](TermId t) { s.Find(t); };
  for (const ConstraintAtom& atom : atoms_) {
    touch(atom.lhs);
    if (atom.rhs_is_term) touch(atom.rhs_term);
  }

  // Outer loop: re-derive all per-class state whenever classes merge.
  constexpr int kMaxRounds = 64;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool merged = false;
    s.lower.clear();
    s.upper.clear();
    s.pin.clear();
    s.edges.clear();
    s.diseq_terms.clear();
    s.diseq_consts.clear();
    s.unsat = false;

    // -- Phase 1: term=term unions.
    for (const ConstraintAtom& atom : atoms_) {
      if (atom.rhs_is_term && atom.op == Comparator::kEq) {
        TermId a = s.Find(atom.lhs);
        TermId b = s.Find(atom.rhs_term);
        if (a != b) {
          s.parent[b] = a;
          merged = true;
        }
      }
    }
    if (merged) continue;

    // Domain type of a class: string / numeric / unknown, with conflicts
    // detected. Returns unsat via flag.
    std::map<TermId, int> class_kind;  // 0 unknown, 1 numeric, 2 string
    std::map<TermId, bool> class_all_int;  // all typed members int64
    std::map<TermId, bool> class_any_typed;
    for (const auto& [term, type] : term_types_) {
      TermId root = s.Find(term);
      int kind = IsNumericType(type) ? 1 : 2;
      auto [it, inserted] = class_kind.emplace(root, kind);
      if (!inserted && it->second != 0 && it->second != kind) {
        s.unsat = true;  // string and numeric terms forced equal
      }
      bool is_int = (type == ValueType::kInt64);
      auto [jt, j_ins] = class_all_int.emplace(root, is_int);
      if (!j_ins) jt->second = jt->second && is_int;
      class_any_typed[root] = true;
    }
    if (s.unsat) break;

    auto kind_of_value = [](const Value& v) { return v.is_string() ? 2 : 1; };
    auto const_compatible = [&](TermId root, const Value& c) {
      auto it = class_kind.find(root);
      if (it == class_kind.end() || it->second == 0) return true;
      return it->second == kind_of_value(c);
    };

    // -- Phase 2: apply the remaining atoms onto class state.
    auto apply_lower = [&s](TermId root, const Value& v, bool strict) {
      Bound& b = s.lower[root];
      if (!b.value.has_value()) {
        b.value = v;
        b.strict = strict;
        return;
      }
      std::optional<int> cmp = CompareValues(v, *b.value);
      if (!cmp.has_value()) {
        s.unsat = true;  // bounds from incomparable domains
        return;
      }
      if (*cmp > 0 || (*cmp == 0 && strict && !b.strict)) {
        b.value = v;
        b.strict = strict;
      }
    };
    auto apply_upper = [&s](TermId root, const Value& v, bool strict) {
      Bound& b = s.upper[root];
      if (!b.value.has_value()) {
        b.value = v;
        b.strict = strict;
        return;
      }
      std::optional<int> cmp = CompareValues(v, *b.value);
      if (!cmp.has_value()) {
        s.unsat = true;
        return;
      }
      if (*cmp < 0 || (*cmp == 0 && strict && !b.strict)) {
        b.value = v;
        b.strict = strict;
      }
    };
    auto apply_pin = [&s](TermId root, const Value& v) {
      auto it = s.pin.find(root);
      if (it == s.pin.end()) {
        s.pin.emplace(root, v);
        return;
      }
      std::optional<int> cmp = CompareValues(it->second, v);
      if (!cmp.has_value() || *cmp != 0) s.unsat = true;
    };
    auto add_edge = [&s](TermId a, TermId b, bool strict) {
      if (a == b) {
        if (strict) s.unsat = true;
        return;
      }
      auto [it, inserted] = s.edges.emplace(std::make_pair(a, b), strict);
      if (!inserted) it->second = it->second || strict;
    };

    for (const ConstraintAtom& atom : atoms_) {
      if (s.unsat) break;
      TermId a = s.Find(atom.lhs);
      if (atom.rhs_is_term) {
        TermId b = s.Find(atom.rhs_term);
        switch (atom.op) {
          case Comparator::kEq:
            break;  // already unioned
          case Comparator::kNe:
            if (a == b) {
              s.unsat = true;
            } else {
              s.diseq_terms.insert(OrderedPair(a, b));
            }
            break;
          case Comparator::kLt:
            add_edge(a, b, true);
            break;
          case Comparator::kLe:
            add_edge(a, b, false);
            break;
          case Comparator::kGt:
            add_edge(b, a, true);
            break;
          case Comparator::kGe:
            add_edge(b, a, false);
            break;
        }
        continue;
      }
      const Value& c = atom.rhs_const;
      if (!const_compatible(a, c)) {
        // A predicate comparing incompatible domains is never satisfied,
        // except != which is always satisfied.
        if (atom.op != Comparator::kNe) s.unsat = true;
        continue;
      }
      switch (atom.op) {
        case Comparator::kEq:
          apply_pin(a, c);
          apply_lower(a, c, false);
          apply_upper(a, c, false);
          break;
        case Comparator::kNe:
          s.diseq_consts.insert(std::make_pair(a, c));
          break;
        case Comparator::kLt:
          apply_upper(a, c, true);
          break;
        case Comparator::kLe:
          apply_upper(a, c, false);
          break;
        case Comparator::kGt:
          apply_lower(a, c, true);
          break;
        case Comparator::kGe:
          apply_lower(a, c, false);
          break;
      }
    }
    if (s.unsat) break;

    // -- Phase 3: transitive closure of the order graph (Floyd-Warshall
    // over the small set of classes).
    std::vector<TermId> roots;
    for (const auto& [t, p] : s.parent) {
      if (t == p) roots.push_back(t);
    }
    for (TermId k : roots) {
      for (TermId i : roots) {
        auto ik = s.edges.find(std::make_pair(i, k));
        if (ik == s.edges.end()) continue;
        for (TermId j : roots) {
          auto kj = s.edges.find(std::make_pair(k, j));
          if (kj == s.edges.end()) continue;
          add_edge(i, j, ik->second || kj->second);
          if (s.unsat) break;
        }
        if (s.unsat) break;
      }
      if (s.unsat) break;
    }
    if (s.unsat) break;

    // a <= b and b <= a (both non-strict) forces a = b: merge and redo.
    for (const auto& [key, strict] : s.edges) {
      if (strict) continue;
      auto back = s.edges.find(std::make_pair(key.second, key.first));
      if (back != s.edges.end() && !back->second) {
        s.parent[key.second] = key.first;
        merged = true;
        break;
      }
    }
    if (merged) continue;

    // A disequality plus a non-strict edge sharpens the edge to strict.
    for (const auto& [key, strict] : s.edges) {
      if (strict) continue;
      if (s.diseq_terms.contains(OrderedPair(key.first, key.second))) {
        s.edges[key] = true;
      }
    }

    // -- Phase 4: bound propagation + integer tightening, to fixpoint.
    for (int iter = 0; iter < kMaxIntegerTightening; ++iter) {
      bool changed = false;
      auto lower_before = s.lower;
      auto upper_before = s.upper;
      // Propagate bounds along edges a (<,<=) b.
      for (const auto& [key, strict] : s.edges) {
        TermId a = key.first;
        TermId b = key.second;
        auto lo_a = s.lower.find(a);
        if (lo_a != s.lower.end() && lo_a->second.value.has_value()) {
          apply_lower(b, *lo_a->second.value,
                      lo_a->second.strict || strict);
        }
        auto up_b = s.upper.find(b);
        if (up_b != s.upper.end() && up_b->second.value.has_value()) {
          apply_upper(a, *up_b->second.value,
                      up_b->second.strict || strict);
        }
      }
      if (s.unsat) break;
      // Integer tightening: on classes whose typed members are all int,
      // strict constant bounds become non-strict at the next integer, and
      // a != c at a closed bound endpoint reopens the bound.
      for (TermId root : roots) {
        auto any_it = class_any_typed.find(root);
        auto all_it = class_all_int.find(root);
        bool is_int_class = any_it != class_any_typed.end() &&
                            any_it->second && all_it != class_all_int.end() &&
                            all_it->second;
        if (!is_int_class) continue;
        auto lo = s.lower.find(root);
        if (lo != s.lower.end() && lo->second.value.has_value() &&
            lo->second.value->is_numeric()) {
          double v = lo->second.value->AsDouble();
          int64_t tightened = lo->second.strict
                                  ? static_cast<int64_t>(std::floor(v)) + 1
                                  : static_cast<int64_t>(std::ceil(v));
          Value nv = Value::Int64(tightened);
          if (!(nv == *lo->second.value) || lo->second.strict) {
            lo->second.value = nv;
            lo->second.strict = false;
          }
        }
        auto up = s.upper.find(root);
        if (up != s.upper.end() && up->second.value.has_value() &&
            up->second.value->is_numeric()) {
          double v = up->second.value->AsDouble();
          int64_t tightened = up->second.strict
                                  ? static_cast<int64_t>(std::ceil(v)) - 1
                                  : static_cast<int64_t>(std::floor(v));
          Value nv = Value::Int64(tightened);
          if (!(nv == *up->second.value) || up->second.strict) {
            up->second.value = nv;
            up->second.strict = false;
          }
        }
      }
      // != at a closed endpoint opens it.
      for (const auto& [root, c] : s.diseq_consts) {
        auto lo = s.lower.find(root);
        if (lo != s.lower.end() && lo->second.value.has_value() &&
            !lo->second.strict) {
          std::optional<int> cmp = CompareValues(*lo->second.value, c);
          if (cmp.has_value() && *cmp == 0) lo->second.strict = true;
        }
        auto up = s.upper.find(root);
        if (up != s.upper.end() && up->second.value.has_value() &&
            !up->second.strict) {
          std::optional<int> cmp = CompareValues(*up->second.value, c);
          if (cmp.has_value() && *cmp == 0) up->second.strict = true;
        }
      }
      changed = !(lower_before == s.lower && upper_before == s.upper);
      if (!changed || s.unsat) break;
    }
    if (s.unsat) break;

    // -- Phase 5: derive pins from collapsed bounds; consistency checks.
    for (TermId root : roots) {
      auto lo = s.lower.find(root);
      auto up = s.upper.find(root);
      bool has_lo = lo != s.lower.end() && lo->second.value.has_value();
      bool has_up = up != s.upper.end() && up->second.value.has_value();
      if (!has_lo || !has_up) continue;
      std::optional<int> cmp =
          CompareValues(*lo->second.value, *up->second.value);
      if (!cmp.has_value() || *cmp > 0) {
        s.unsat = true;
        break;
      }
      if (*cmp == 0) {
        if (lo->second.strict || up->second.strict) {
          s.unsat = true;
          break;
        }
        apply_pin(root, *lo->second.value);
      }
    }
    if (s.unsat) break;

    for (const auto& [root, c] : s.diseq_consts) {
      auto pin = s.pin.find(root);
      if (pin != s.pin.end()) {
        std::optional<int> cmp = CompareValues(pin->second, c);
        if (cmp.has_value() && *cmp == 0) {
          s.unsat = true;
          break;
        }
      }
    }
    if (s.unsat) break;

    for (const auto& pair : s.diseq_terms) {
      if (pair.first == pair.second) {
        s.unsat = true;
        break;
      }
      auto pa = s.pin.find(pair.first);
      auto pb = s.pin.find(pair.second);
      if (pa != s.pin.end() && pb != s.pin.end()) {
        std::optional<int> cmp = CompareValues(pa->second, pb->second);
        if (cmp.has_value() && *cmp == 0) {
          s.unsat = true;
          break;
        }
      }
    }
    if (s.unsat) break;

    // Edges between pinned classes must hold.
    for (const auto& [key, strict] : s.edges) {
      auto pa = s.pin.find(key.first);
      auto pb = s.pin.find(key.second);
      if (pa == s.pin.end() || pb == s.pin.end()) continue;
      std::optional<int> cmp = CompareValues(pa->second, pb->second);
      if (!cmp.has_value() || *cmp > 0 || (*cmp == 0 && strict)) {
        s.unsat = true;
        break;
      }
    }
    break;
  }

  solved_ = std::move(s);
  return *solved_;
}

bool ConstraintSet::IsSatisfiable() const { return !Normalized().unsat; }

Truth ConstraintSet::DeepCheckSatisfiable(long long limit) const {
  const Solved& s = Normalized();
  if (s.unsat) return Truth::kFalse;
  std::vector<TermId> terms = MentionedTerms();
  if (terms.empty()) return Truth::kTrue;

  // Group the mentioned terms into solver classes; enumeration assigns
  // one value per class (equalities are sound, so every model agrees
  // within a class).
  std::map<TermId, std::vector<TermId>> classes;
  for (TermId t : terms) classes[s.FindConst(t)].push_back(t);

  struct ClassDomain {
    std::vector<TermId> members;
    std::vector<Value> values;
  };
  std::vector<ClassDomain> domains;
  long long combinations = 1;
  for (auto& [root, members] : classes) {
    ClassDomain domain;
    domain.members = members;
    auto pin = s.pin.find(root);
    if (pin != s.pin.end()) {
      domain.values.push_back(pin->second);
      domains.push_back(std::move(domain));
      continue;
    }
    // Without a pin, a finite domain requires an all-integer class with
    // both bounds derived. (The derived bounds are necessary conditions,
    // so every model lies inside them.)
    for (TermId member : members) {
      auto type = term_types_.find(member);
      if (type == term_types_.end() || type->second != ValueType::kInt64) {
        return Truth::kUnknown;
      }
    }
    auto lo = s.lower.find(root);
    auto up = s.upper.find(root);
    if (lo == s.lower.end() || !lo->second.value.has_value() ||
        up == s.upper.end() || !up->second.value.has_value() ||
        !lo->second.value->is_numeric() || !up->second.value->is_numeric()) {
      return Truth::kUnknown;
    }
    // Integer tightening normally leaves closed Int64 bounds; re-derive
    // the closed endpoints defensively for strict or fractional ones.
    double lo_raw = lo->second.value->AsDouble();
    double hi_raw = up->second.value->AsDouble();
    int64_t lo_int = static_cast<int64_t>(std::ceil(lo_raw));
    if (lo->second.strict && lo_int == static_cast<int64_t>(lo_raw)) ++lo_int;
    int64_t hi_int = static_cast<int64_t>(std::floor(hi_raw));
    if (up->second.strict && hi_int == static_cast<int64_t>(hi_raw)) --hi_int;
    if (lo_int > hi_int) return Truth::kFalse;
    long long width = hi_int - lo_int + 1;
    if (width > limit || combinations > limit / width) {
      return Truth::kUnknown;
    }
    combinations *= width;
    for (int64_t v = lo_int; v <= hi_int; ++v) {
      domain.values.push_back(Value::Int64(v));
    }
    domains.push_back(std::move(domain));
  }

  // Odometer over the class domains, testing the source atoms directly.
  std::vector<size_t> index(domains.size(), 0);
  std::map<TermId, Value> assignment;
  while (true) {
    for (size_t i = 0; i < domains.size(); ++i) {
      for (TermId member : domains[i].members) {
        assignment[member] = domains[i].values[index[i]];
      }
    }
    if (Satisfied(assignment)) return Truth::kTrue;
    size_t pos = 0;
    while (pos < domains.size() &&
           ++index[pos] == domains[pos].values.size()) {
      index[pos] = 0;
      ++pos;
    }
    if (pos == domains.size()) break;
  }
  return Truth::kFalse;
}

Truth ConstraintSet::Implies(const ConstraintAtom& atom) const {
  const Solved& s = Normalized();
  if (s.unsat) return Truth::kTrue;  // vacuous

  TermId a = s.FindConst(atom.lhs);
  auto pin_a = s.pin.find(a);
  auto lo_a = s.lower.find(a);
  auto up_a = s.upper.find(a);
  const bool has_lo = lo_a != s.lower.end() && lo_a->second.value.has_value();
  const bool has_up = up_a != s.upper.end() && up_a->second.value.has_value();

  if (!atom.rhs_is_term) {
    const Value& c = atom.rhs_const;
    // Relationship between the class and the constant c.
    bool known_le = false, known_lt = false;  // term <= c / term < c
    bool known_ge = false, known_gt = false;
    bool known_ne = s.diseq_consts.contains(std::make_pair(a, c));
    bool known_eq = false;
    if (pin_a != s.pin.end()) {
      std::optional<int> cmp = pin_a->second.Compare(c);
      if (!cmp.has_value()) {
        known_ne = true;  // incomparable domains are never equal
      } else {
        known_eq = *cmp == 0;
        known_lt = *cmp < 0;
        known_gt = *cmp > 0;
        known_le = *cmp <= 0;
        known_ge = *cmp >= 0;
        known_ne = known_ne || *cmp != 0;
      }
    } else {
      if (has_up) {
        std::optional<int> cmp = up_a->second.value->Compare(c);
        if (cmp.has_value()) {
          if (*cmp < 0 || (*cmp == 0 && up_a->second.strict)) {
            known_lt = known_le = true;
          } else if (*cmp == 0) {
            known_le = true;
          }
        }
      }
      if (has_lo) {
        std::optional<int> cmp = lo_a->second.value->Compare(c);
        if (cmp.has_value()) {
          if (*cmp > 0 || (*cmp == 0 && lo_a->second.strict)) {
            known_gt = known_ge = true;
          } else if (*cmp == 0) {
            known_ge = true;
          }
        }
      }
    }
    known_ne = known_ne || known_lt || known_gt;
    switch (atom.op) {
      case Comparator::kEq:
        if (known_eq) return Truth::kTrue;
        if (known_ne) return Truth::kFalse;
        return Truth::kUnknown;
      case Comparator::kNe:
        if (known_ne) return Truth::kTrue;
        if (known_eq) return Truth::kFalse;
        return Truth::kUnknown;
      case Comparator::kLt:
        if (known_lt) return Truth::kTrue;
        if (known_ge) return Truth::kFalse;
        return Truth::kUnknown;
      case Comparator::kLe:
        if (known_le) return Truth::kTrue;
        if (known_gt) return Truth::kFalse;
        return Truth::kUnknown;
      case Comparator::kGt:
        if (known_gt) return Truth::kTrue;
        if (known_le) return Truth::kFalse;
        return Truth::kUnknown;
      case Comparator::kGe:
        if (known_ge) return Truth::kTrue;
        if (known_lt) return Truth::kFalse;
        return Truth::kUnknown;
    }
    return Truth::kUnknown;
  }

  TermId b = s.FindConst(atom.rhs_term);
  // Derive the known relation between classes a and b.
  bool known_le = false, known_lt = false;
  bool known_ge = false, known_gt = false;
  bool known_eq = (a == b);
  bool known_ne = s.diseq_terms.contains(OrderedPair(a, b));
  if (known_eq) {
    known_le = known_ge = true;
  }
  auto edge_ab = s.edges.find(std::make_pair(a, b));
  if (edge_ab != s.edges.end()) {
    known_le = true;
    known_lt = known_lt || edge_ab->second;
  }
  auto edge_ba = s.edges.find(std::make_pair(b, a));
  if (edge_ba != s.edges.end()) {
    known_ge = true;
    known_gt = known_gt || edge_ba->second;
  }
  auto pin_b = s.pin.find(b);
  if (pin_a != s.pin.end() && pin_b != s.pin.end()) {
    std::optional<int> cmp = pin_a->second.Compare(pin_b->second);
    if (!cmp.has_value()) {
      known_ne = true;
    } else {
      known_eq = known_eq || *cmp == 0;
      known_lt = known_lt || *cmp < 0;
      known_gt = known_gt || *cmp > 0;
      known_le = known_le || *cmp <= 0;
      known_ge = known_ge || *cmp >= 0;
    }
  }
  // Disjoint bounds: up(a) vs lo(b) and lo(a) vs up(b).
  auto lo_b = s.lower.find(b);
  auto up_b = s.upper.find(b);
  const bool b_has_lo =
      lo_b != s.lower.end() && lo_b->second.value.has_value();
  const bool b_has_up =
      up_b != s.upper.end() && up_b->second.value.has_value();
  if (has_up && b_has_lo) {
    std::optional<int> cmp =
        up_a->second.value->Compare(*lo_b->second.value);
    if (cmp.has_value()) {
      if (*cmp < 0) {
        known_lt = known_le = true;
      } else if (*cmp == 0) {
        known_le = true;
        if (up_a->second.strict || lo_b->second.strict) known_lt = true;
      }
    }
  }
  if (has_lo && b_has_up) {
    std::optional<int> cmp =
        lo_a->second.value->Compare(*up_b->second.value);
    if (cmp.has_value()) {
      if (*cmp > 0) {
        known_gt = known_ge = true;
      } else if (*cmp == 0) {
        known_ge = true;
        if (lo_a->second.strict || up_b->second.strict) known_gt = true;
      }
    }
  }
  // Incomparable class domains (string vs numeric) are never equal.
  // (Detected indirectly through pins/bounds above; a full class-kind
  // check would need the type map, which pins usually cover.)
  known_ne = known_ne || known_lt || known_gt;
  if (known_ne && known_le) known_lt = true;
  if (known_ne && known_ge) known_gt = true;

  switch (atom.op) {
    case Comparator::kEq:
      if (known_eq) return Truth::kTrue;
      if (known_ne) return Truth::kFalse;
      return Truth::kUnknown;
    case Comparator::kNe:
      if (known_ne) return Truth::kTrue;
      if (known_eq) return Truth::kFalse;
      return Truth::kUnknown;
    case Comparator::kLt:
      if (known_lt) return Truth::kTrue;
      if (known_ge) return Truth::kFalse;
      return Truth::kUnknown;
    case Comparator::kLe:
      if (known_le) return Truth::kTrue;
      if (known_gt) return Truth::kFalse;
      return Truth::kUnknown;
    case Comparator::kGt:
      if (known_gt) return Truth::kTrue;
      if (known_le) return Truth::kFalse;
      return Truth::kUnknown;
    case Comparator::kGe:
      if (known_ge) return Truth::kTrue;
      if (known_lt) return Truth::kFalse;
      return Truth::kUnknown;
  }
  return Truth::kUnknown;
}

Truth ConstraintSet::ImpliesAll(const ConstraintSet& other) const {
  bool all_true = true;
  for (const ConstraintAtom& atom : other.atoms_) {
    Truth t = Implies(atom);
    if (t == Truth::kFalse) return Truth::kFalse;
    if (t != Truth::kTrue) all_true = false;
  }
  return all_true ? Truth::kTrue : Truth::kUnknown;
}

bool ConstraintSet::ContradictsWith(const ConstraintSet& other) const {
  ConstraintSet merged = *this;
  merged.AddAll(other);
  return !merged.IsSatisfiable();
}

bool ConstraintSet::IsUnconstrained(TermId term) const {
  const Solved& s = Normalized();
  if (s.unsat) return false;
  TermId root = s.FindConst(term);
  // Another term in the same class constrains it.
  for (const auto& [t, p] : s.parent) {
    if (t != term && s.FindConst(t) == root) return false;
  }
  auto lo = s.lower.find(root);
  if (lo != s.lower.end() && lo->second.value.has_value()) return false;
  auto up = s.upper.find(root);
  if (up != s.upper.end() && up->second.value.has_value()) return false;
  if (s.pin.contains(root)) return false;
  for (const auto& [key, strict] : s.edges) {
    (void)strict;
    if (key.first == root || key.second == root) return false;
  }
  for (const auto& pair : s.diseq_terms) {
    if (pair.first == root || pair.second == root) return false;
  }
  for (const auto& [t, c] : s.diseq_consts) {
    (void)c;
    if (t == root) return false;
  }
  return true;
}

bool ConstraintSet::InteractsWithOtherTerms(TermId term) const {
  const Solved& s = Normalized();
  if (s.unsat) return true;
  TermId root = s.FindConst(term);
  for (const auto& [t, p] : s.parent) {
    (void)p;
    if (t != term && s.FindConst(t) == root) return true;
  }
  for (const auto& [key, strict] : s.edges) {
    (void)strict;
    if (key.first == root || key.second == root) return true;
  }
  for (const auto& pair : s.diseq_terms) {
    if (pair.first == root || pair.second == root) return true;
  }
  return false;
}

bool ConstraintSet::AreEqual(TermId a, TermId b) const {
  const Solved& s = Normalized();
  if (s.unsat) return false;
  return s.FindConst(a) == s.FindConst(b);
}

std::optional<Value> ConstraintSet::PinnedConstant(TermId term) const {
  const Solved& s = Normalized();
  if (s.unsat) return std::nullopt;
  auto it = s.pin.find(s.FindConst(term));
  if (it == s.pin.end()) return std::nullopt;
  return it->second;
}

std::vector<ConstraintAtom> ConstraintSet::ExportAtoms(
    const std::vector<TermId>& terms) const {
  const Solved& s = Normalized();
  std::vector<ConstraintAtom> out;
  if (s.unsat) {
    // Export an explicit contradiction so the caller sees an unsatisfiable
    // set rather than an empty (trivially true) one.
    TermId t = terms.empty() ? 0 : terms[0];
    out.push_back(ConstraintAtom::TermConst(t, Comparator::kLt,
                                            Value::Int64(0)));
    out.push_back(ConstraintAtom::TermConst(t, Comparator::kGt,
                                            Value::Int64(0)));
    return out;
  }

  const bool filtered = !terms.empty();
  auto in_filter = [&](TermId t) {
    return !filtered || std::find(terms.begin(), terms.end(), t) != terms.end();
  };

  // Class -> ordered members that pass the filter.
  std::map<TermId, std::vector<TermId>> members;
  for (const auto& [t, p] : s.parent) {
    (void)p;
    if (in_filter(t)) members[s.FindConst(t)].push_back(t);
  }
  for (auto& [root, list] : members) {
    (void)root;
    std::sort(list.begin(), list.end());
  }
  auto rep = [&](TermId root) -> std::optional<TermId> {
    auto it = members.find(root);
    if (it == members.end() || it->second.empty()) return std::nullopt;
    return it->second.front();
  };

  // Intra-class equalities.
  for (const auto& [root, list] : members) {
    (void)root;
    for (size_t i = 1; i < list.size(); ++i) {
      out.push_back(
          ConstraintAtom::TermTerm(list[0], Comparator::kEq, list[i]));
    }
  }
  // Pins and bounds.
  for (const auto& [root, list] : members) {
    if (list.empty()) continue;
    TermId r = list.front();
    auto pin = s.pin.find(root);
    if (pin != s.pin.end()) {
      out.push_back(ConstraintAtom::TermConst(r, Comparator::kEq,
                                              pin->second));
      continue;
    }
    auto lo = s.lower.find(root);
    if (lo != s.lower.end() && lo->second.value.has_value()) {
      out.push_back(ConstraintAtom::TermConst(
          r, lo->second.strict ? Comparator::kGt : Comparator::kGe,
          *lo->second.value));
    }
    auto up = s.upper.find(root);
    if (up != s.upper.end() && up->second.value.has_value()) {
      out.push_back(ConstraintAtom::TermConst(
          r, up->second.strict ? Comparator::kLt : Comparator::kLe,
          *up->second.value));
    }
  }
  // Order edges (skip those already implied by exported bounds on pinned
  // pairs; harmless redundancy is acceptable for display).
  for (const auto& [key, strict] : s.edges) {
    auto ra = rep(key.first);
    auto rb = rep(key.second);
    if (!ra.has_value() || !rb.has_value()) continue;
    if (s.pin.contains(key.first) && s.pin.contains(key.second)) continue;
    out.push_back(ConstraintAtom::TermTerm(
        *ra, strict ? Comparator::kLt : Comparator::kLe, *rb));
  }
  // Disequalities.
  for (const auto& pair : s.diseq_terms) {
    auto ra = rep(pair.first);
    auto rb = rep(pair.second);
    if (!ra.has_value() || !rb.has_value()) continue;
    out.push_back(ConstraintAtom::TermTerm(*ra, Comparator::kNe, *rb));
  }
  for (const auto& [root, c] : s.diseq_consts) {
    auto ra = rep(root);
    if (!ra.has_value()) continue;
    if (s.pin.contains(root)) continue;  // pin already separates them
    // A bound already strictly excluding c makes the atom redundant.
    out.push_back(ConstraintAtom::TermConst(*ra, Comparator::kNe, c));
  }
  return out;
}

std::vector<TermId> ConstraintSet::MentionedTerms() const {
  std::set<TermId> seen;
  for (const ConstraintAtom& atom : atoms_) {
    seen.insert(atom.lhs);
    if (atom.rhs_is_term) seen.insert(atom.rhs_term);
  }
  return std::vector<TermId>(seen.begin(), seen.end());
}

void ConstraintSet::ForgetTerm(TermId term) {
  // Re-materialize the closure over the remaining terms first, so that
  // consequences routed through `term` (x = term, term = y  =>  x = y)
  // survive its removal.
  std::vector<TermId> keep;
  for (TermId t : MentionedTerms()) {
    if (t != term) keep.push_back(t);
  }
  std::vector<ConstraintAtom> exported;
  if (!IsSatisfiable()) {
    // Preserve unsatisfiability (on an arbitrary term id).
    TermId t = keep.empty() ? term : keep[0];
    exported.push_back(
        ConstraintAtom::TermConst(t, Comparator::kLt, Value::Int64(0)));
    exported.push_back(
        ConstraintAtom::TermConst(t, Comparator::kGt, Value::Int64(0)));
  } else if (!keep.empty()) {
    // Note: an empty keep-list means ExportAtoms would export everything
    // (no filter), so it must be special-cased to "no atoms".
    exported = ExportAtoms(keep);
  }
  atoms_ = std::move(exported);
  term_types_.erase(term);
  solved_.reset();
}

bool ConstraintSet::Satisfied(
    const std::map<TermId, Value>& assignment) const {
  for (const ConstraintAtom& atom : atoms_) {
    auto lhs_it = assignment.find(atom.lhs);
    if (lhs_it == assignment.end()) return false;
    Value rhs;
    if (atom.rhs_is_term) {
      auto rhs_it = assignment.find(atom.rhs_term);
      if (rhs_it == assignment.end()) return false;
      rhs = rhs_it->second;
    } else {
      rhs = atom.rhs_const;
    }
    if (!lhs_it->second.Satisfies(atom.op, rhs)) return false;
  }
  return true;
}

std::string ConstraintSet::ToString() const {
  auto namer = [](TermId t) { return "t" + std::to_string(t); };
  std::vector<std::string> parts;
  for (const ConstraintAtom& atom : atoms_) {
    parts.push_back(atom.ToString(namer));
  }
  return Join(parts, " and ");
}

}  // namespace viewauth
