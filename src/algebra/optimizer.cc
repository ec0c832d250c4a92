#include "algebra/optimizer.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "algebra/scan.h"

namespace viewauth {

namespace {

// A condition classified by the atoms it touches.
struct PendingCondition {
  CalculusCondition cond;
  std::set<int> atoms;  // atom indices referenced
};

// Hash of the join-key values of a tuple.
struct KeyHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace

Result<Relation> EvaluateOptimized(const ConjunctiveQuery& query,
                                   const DatabaseInstance& db,
                                   const std::string& result_name,
                                   EvalStats* stats, ExecContext* ctx) {
  const int num_atoms = static_cast<int>(query.atoms().size());

  // --- Phase 1: per-atom scans with pushed-down single-atom conditions.
  std::vector<PendingCondition> pending;
  std::vector<ConjunctivePredicate> local(num_atoms);
  for (const CalculusCondition& cond : query.conditions()) {
    std::set<int> atoms{cond.lhs.atom};
    if (cond.rhs_is_column) atoms.insert(cond.rhs_column.atom);
    if (atoms.size() == 1) {
      const int atom = *atoms.begin();
      if (cond.rhs_is_column) {
        local[atom].Add(SelectionAtom::ColumnColumn(cond.lhs.attr, cond.op,
                                                    cond.rhs_column.attr));
      } else {
        local[atom].Add(
            SelectionAtom::ColumnConst(cond.lhs.attr, cond.op, cond.rhs_const));
      }
    } else {
      pending.push_back(PendingCondition{cond, std::move(atoms)});
    }
  }

  // Scans share the index-aware row-id selection (and its uniform
  // rows_scanned accounting) with the late-materialized pipeline; this
  // strategy then materializes the selected rows, as its joins carry
  // whole tuples.
  std::vector<std::vector<Tuple>> inputs(num_atoms);
  for (int i = 0; i < num_atoms; ++i) {
    VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel,
                              db.GetRelation(query.atoms()[i].relation));
    std::vector<uint32_t> ids =
        SelectRowIds(*rel, query.atom_schema(i), local[i], stats, ctx);
    if (ctx != nullptr && !ctx->ok()) return ctx->status();
    inputs[i].reserve(ids.size());
    for (uint32_t id : ids) inputs[i].push_back(rel->row(id));
    if (ctx != nullptr &&
        !ctx->TickBytes(static_cast<long long>(ids.size()) *
                        ApproxTupleBytes(query.atom_schema(i).arity()))) {
      return ctx->status();
    }
    if (stats != nullptr) {
      stats->tuples_materialized += static_cast<long long>(ids.size());
    }
  }

  // --- Phase 2: greedy join order. `position` maps each joined atom to
  // the offset of its columns in the current intermediate tuples.
  std::vector<Tuple> current;
  std::map<int, int> position;  // atom -> column offset
  std::set<int> joined;
  int width = 0;

  auto flat = [&](const ColumnRef& ref) {
    return position.at(ref.atom) + ref.attr;
  };

  // Conditions become applicable once all their atoms are joined.
  auto apply_ready_conditions = [&]() {
    for (auto it = pending.begin(); it != pending.end();) {
      bool ready = std::all_of(it->atoms.begin(), it->atoms.end(),
                               [&](int a) { return joined.contains(a); });
      if (!ready) {
        ++it;
        continue;
      }
      const CalculusCondition& c = it->cond;
      SelectionAtom atom =
          c.rhs_is_column
              ? SelectionAtom::ColumnColumn(flat(c.lhs), c.op,
                                            flat(c.rhs_column))
              : SelectionAtom::ColumnConst(flat(c.lhs), c.op, c.rhs_const);
      std::vector<Tuple> filtered;
      filtered.reserve(current.size());
      for (Tuple& t : current) {
        if (atom.Matches(t)) filtered.push_back(std::move(t));
      }
      current = std::move(filtered);
      it = pending.erase(it);
    }
  };

  // Start with the smallest input.
  int first = 0;
  for (int i = 1; i < num_atoms; ++i) {
    if (inputs[i].size() < inputs[first].size()) first = i;
  }
  current = std::move(inputs[first]);
  position[first] = 0;
  joined.insert(first);
  width = query.atom_schema(first).arity();
  apply_ready_conditions();

  while (static_cast<int>(joined.size()) < num_atoms) {
    // Prefer an unjoined atom connected by an equality condition; break
    // ties by input size.
    int next = -1;
    bool next_connected = false;
    for (int i = 0; i < num_atoms; ++i) {
      if (joined.contains(i)) continue;
      bool connected = false;
      for (const PendingCondition& pc : pending) {
        if (pc.cond.op != Comparator::kEq || !pc.cond.rhs_is_column) continue;
        if (!pc.atoms.contains(i)) continue;
        bool others_joined =
            std::all_of(pc.atoms.begin(), pc.atoms.end(), [&](int a) {
              return a == i || joined.contains(a);
            });
        if (others_joined) {
          connected = true;
          break;
        }
      }
      if (next == -1 || (connected && !next_connected) ||
          (connected == next_connected &&
           inputs[i].size() < inputs[next].size())) {
        next = i;
        next_connected = connected;
      }
    }

    // Collect the equality join keys between `current` and atom `next`.
    std::vector<std::pair<int, int>> keys;  // (current column, next attr)
    for (const PendingCondition& pc : pending) {
      if (pc.cond.op != Comparator::kEq || !pc.cond.rhs_is_column) continue;
      const CalculusCondition& c = pc.cond;
      if (c.lhs.atom == next && joined.contains(c.rhs_column.atom)) {
        keys.emplace_back(flat(c.rhs_column), c.lhs.attr);
      } else if (c.rhs_column.atom == next && joined.contains(c.lhs.atom)) {
        keys.emplace_back(flat(c.lhs), c.rhs_column.attr);
      }
    }

    std::vector<Tuple> joined_rows;
    if (!keys.empty()) {
      // Hash join: build on the new atom, probe with current rows.
      std::unordered_multimap<Tuple, const Tuple*, KeyHash> table;
      std::vector<int> build_cols;
      build_cols.reserve(keys.size());
      for (const auto& [cur_col, next_attr] : keys) {
        (void)cur_col;
        build_cols.push_back(next_attr);
      }
      for (const Tuple& row : inputs[next]) {
        table.emplace(row.Project(build_cols), &row);
      }
      std::vector<int> probe_cols;
      probe_cols.reserve(keys.size());
      for (const auto& [cur_col, next_attr] : keys) {
        (void)next_attr;
        probe_cols.push_back(cur_col);
      }
      const long long row_bytes =
          ApproxTupleBytes(width + query.atom_schema(next).arity());
      ExecMeter meter(ctx);
      for (const Tuple& row : current) {
        Tuple probe_key = row.Project(probe_cols);
        auto [lo, hi] = table.equal_range(probe_key);
        for (auto it = lo; it != hi; ++it) {
          if (!meter.Tick(1, row_bytes)) return ctx->status();
          joined_rows.push_back(Tuple::Concat(row, *it->second));
        }
      }
    } else {
      // No connecting equality: cartesian product.
      joined_rows.reserve(current.size() * inputs[next].size());
      const long long row_bytes =
          ApproxTupleBytes(width + query.atom_schema(next).arity());
      ExecMeter meter(ctx);
      for (const Tuple& l : current) {
        for (const Tuple& r : inputs[next]) {
          if (!meter.Tick(1, row_bytes)) return ctx->status();
          joined_rows.push_back(Tuple::Concat(l, r));
        }
      }
    }
    if (stats != nullptr) {
      stats->intermediate_rows += static_cast<long long>(joined_rows.size());
      stats->tuples_materialized +=
          static_cast<long long>(joined_rows.size());
    }
    current = std::move(joined_rows);
    position[next] = width;
    width += query.atom_schema(next).arity();
    joined.insert(next);
    apply_ready_conditions();
  }

  // --- Phase 3: final projection (deduplicated by the result relation).
  std::vector<int> out_cols;
  out_cols.reserve(query.targets().size());
  for (const ColumnRef& ref : query.targets()) out_cols.push_back(flat(ref));

  VIEWAUTH_ASSIGN_OR_RETURN(RelationSchema schema,
                            query.OutputSchema(result_name));
  Relation result(schema);
  const long long out_bytes =
      ApproxTupleBytes(static_cast<int>(out_cols.size()));
  ExecMeter meter(ctx);
  for (const Tuple& t : current) {
    if (!meter.Tick(1, out_bytes)) return ctx->status();
    result.InsertUnchecked(t.Project(out_cols));
  }
  if (stats != nullptr) {
    stats->tuples_materialized += static_cast<long long>(current.size());
    stats->output_rows = result.size();
  }
  return result;
}

}  // namespace viewauth
