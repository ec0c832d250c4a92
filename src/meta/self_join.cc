#include "meta/self_join.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/logging.h"

namespace viewauth {

namespace {

void MergeBookkeeping(const MetaTuple& from, MetaTuple* into) {
  into->constraints().AddAll(from.constraints());
  for (const std::string& view : from.views()) into->views().insert(view);
  for (const auto& [var, atoms] : from.var_atoms()) {
    into->var_atoms()[var].insert(atoms.begin(), atoms.end());
  }
  for (AtomId atom : from.origin_atoms()) into->origin_atoms().insert(atom);
}

}  // namespace

std::optional<MetaTuple> SelfJoinPair(const MetaTuple& r, const MetaTuple& s,
                                      const RelationSchema& schema) {
  VIEWAUTH_CHECK(r.arity() == s.arity() &&
                 r.arity() == schema.arity())
      << "self-join arity mismatch";
  // The paper restricts self-joins to tuples of different views.
  for (const std::string& view : r.views()) {
    if (s.views().contains(view)) return std::nullopt;
  }
  // Lossless join requires both projections to include the key.
  if (!schema.has_key()) return std::nullopt;
  for (int k : schema.key()) {
    if (!r.cells()[k].projected || !s.cells()[k].projected) {
      return std::nullopt;
    }
  }

  MetaTuple joined;
  joined.cells().reserve(static_cast<size_t>(r.arity()));
  MergeBookkeeping(r, &joined);
  MergeBookkeeping(s, &joined);

  for (int i = 0; i < r.arity(); ++i) {
    const MetaCell& a = r.cells()[i];
    const MetaCell& b = s.cells()[i];
    const bool starred = a.projected || b.projected;
    // The joined column must satisfy both sides' cell predicates.
    if (a.is_blank()) {
      MetaCell cell = b;
      cell.projected = starred;
      joined.cells().push_back(std::move(cell));
      continue;
    }
    if (b.is_blank()) {
      MetaCell cell = a;
      cell.projected = starred;
      joined.cells().push_back(std::move(cell));
      continue;
    }
    if (a.kind == CellKind::kConst && b.kind == CellKind::kConst) {
      if (!(a.constant == b.constant) &&
          !a.constant.Satisfies(Comparator::kEq, b.constant)) {
        return std::nullopt;  // contradictory selections: empty join
      }
      joined.cells().push_back(MetaCell::Const(a.constant, starred));
      continue;
    }
    if (a.kind == CellKind::kVar && b.kind == CellKind::kVar) {
      joined.cells().push_back(MetaCell::Var(a.var, starred));
      if (a.var != b.var) {
        joined.constraints().AddTermTerm(a.var, Comparator::kEq, b.var);
      }
      continue;
    }
    // One constant, one variable: keep the variable (it may link other
    // cells or tuples) and pin it to the constant.
    const MetaCell& var_cell = a.kind == CellKind::kVar ? a : b;
    const MetaCell& const_cell = a.kind == CellKind::kConst ? a : b;
    joined.cells().push_back(MetaCell::Var(var_cell.var, starred));
    joined.constraints().AddTermConst(var_cell.var, Comparator::kEq,
                                      const_cell.constant);
  }

  if (!joined.constraints().IsSatisfiable()) return std::nullopt;
  return joined;
}

MetaRelation WithSelfJoins(const MetaRelation& input,
                           const RelationSchema& schema, int rounds) {
  MetaRelation out(input.columns());
  std::unordered_set<std::string> seen;
  for (const MetaTuple& tuple : input.tuples()) {
    seen.insert(tuple.StructuralKey());
    out.Add(tuple);
  }
  if (!schema.has_key()) return out;

  // `frontier` holds the tuples produced in the previous round; joins are
  // taken between the frontier and the originals.
  std::vector<MetaTuple> originals = input.tuples();
  std::vector<MetaTuple> frontier = originals;
  for (int round = 0; round < rounds; ++round) {
    std::vector<MetaTuple> produced;
    for (const MetaTuple& r : frontier) {
      for (const MetaTuple& s : originals) {
        std::optional<MetaTuple> joined = SelfJoinPair(r, s, schema);
        if (!joined.has_value()) continue;
        std::string key = joined->StructuralKey();
        if (!seen.insert(key).second) continue;
        out.Add(*joined);
        produced.push_back(std::move(*joined));
      }
    }
    if (produced.empty()) break;
    frontier = std::move(produced);
  }
  return out;
}

}  // namespace viewauth
