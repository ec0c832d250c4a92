#include "algebra/latemat.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "algebra/scan.h"
#include "storage/key_view.h"

namespace viewauth {

namespace {

// A condition not yet applied, with the atoms it touches.
struct PendingCondition {
  CalculusCondition cond;
  std::set<int> atoms;
};

}  // namespace

Result<Relation> EvaluateLateMaterialized(const ConjunctiveQuery& query,
                                          const DatabaseInstance& db,
                                          const std::string& result_name,
                                          EvalStats* stats,
                                          ExecContext* ctx) {
  const int num_atoms = static_cast<int>(query.atoms().size());

  // --- Phase 1: per-atom scans with pushed-down single-atom conditions,
  // yielding row-index arrays (no tuple copies).
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

  std::vector<const Relation*> base(num_atoms);
  std::vector<std::vector<uint32_t>> inputs(num_atoms);
  for (int i = 0; i < num_atoms; ++i) {
    VIEWAUTH_ASSIGN_OR_RETURN(base[i],
                              db.GetRelation(query.atoms()[i].relation));
    inputs[i] =
        SelectRowIds(*base[i], query.atom_schema(i), local[i], stats, ctx);
    if (ctx != nullptr && !ctx->ok()) return ctx->status();
  }

  // --- Phase 2: greedy join order over index rows. An intermediate row
  // is `stride` base-row indices, one per joined atom; `slot_of_atom`
  // maps a joined atom to its offset within a row.
  std::vector<int> slot_of_atom(num_atoms, -1);
  std::vector<uint32_t> current;  // row-major, `stride` entries per row
  std::set<int> joined;
  int stride = 0;

  // The value of (atom, attr) in the intermediate row starting at
  // `row_base`.
  auto value_at = [&](size_t row_base, int atom, int attr) -> const Value& {
    return base[atom]
        ->row(current[row_base + static_cast<size_t>(slot_of_atom[atom])])
        .at(attr);
  };

  // Conditions become applicable once all their atoms are joined;
  // evaluation goes through the indirection, compacting `current` in
  // place.
  auto apply_ready_conditions = [&]() {
    for (auto it = pending.begin(); it != pending.end();) {
      bool ready = std::all_of(it->atoms.begin(), it->atoms.end(),
                               [&](int a) { return joined.contains(a); });
      if (!ready) {
        ++it;
        continue;
      }
      const CalculusCondition& c = it->cond;
      const size_t row_count = current.size() / static_cast<size_t>(stride);
      size_t write = 0;
      for (size_t r = 0; r < row_count; ++r) {
        const size_t row_base = r * static_cast<size_t>(stride);
        const Value& lhs = value_at(row_base, c.lhs.atom, c.lhs.attr);
        const bool keep =
            c.rhs_is_column
                ? lhs.Satisfies(c.op, value_at(row_base, c.rhs_column.atom,
                                               c.rhs_column.attr))
                : lhs.Satisfies(c.op, c.rhs_const);
        if (keep) {
          if (write != row_base) {
            std::copy(current.begin() + static_cast<long>(row_base),
                      current.begin() + static_cast<long>(row_base) + stride,
                      current.begin() + static_cast<long>(write));
          }
          write += static_cast<size_t>(stride);
        }
      }
      current.resize(write);
      it = pending.erase(it);
    }
  };

  // Start with the smallest input.
  int first = 0;
  for (int i = 1; i < num_atoms; ++i) {
    if (inputs[i].size() < inputs[first].size()) first = i;
  }
  current = std::move(inputs[first]);
  slot_of_atom[first] = 0;
  joined.insert(first);
  stride = 1;
  apply_ready_conditions();

  while (static_cast<int>(joined.size()) < num_atoms) {
    // Prefer an unjoined atom connected by an equality condition; break
    // ties by input size (same heuristic as EvaluateOptimized, so both
    // strategies run the same join order).
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

    // Equality join keys between `current` and atom `next`: pairs of
    // (joined-side column ref, next-side attr).
    struct JoinKey {
      int cur_atom;
      int cur_attr;
      int next_attr;
    };
    std::vector<JoinKey> keys;
    for (const PendingCondition& pc : pending) {
      if (pc.cond.op != Comparator::kEq || !pc.cond.rhs_is_column) continue;
      const CalculusCondition& c = pc.cond;
      if (c.lhs.atom == next && joined.contains(c.rhs_column.atom)) {
        keys.push_back(JoinKey{c.rhs_column.atom, c.rhs_column.attr,
                               c.lhs.attr});
      } else if (c.rhs_column.atom == next && joined.contains(c.lhs.atom)) {
        keys.push_back(JoinKey{c.lhs.atom, c.lhs.attr, c.rhs_column.attr});
      }
    }

    const size_t row_count = current.size() / static_cast<size_t>(stride);
    const int new_stride = stride + 1;
    std::vector<uint32_t> joined_rows;
    if (!keys.empty()) {
      // Hash join: build on the new atom, probe with current rows. Keys
      // are hashed in place over the referenced Values — no projected
      // key Tuples are allocated on either side. The build side is a
      // sorted flat array of (hash, base row) pairs rather than a
      // node-based hash table: one contiguous allocation, and probes are
      // cache-friendly binary searches.
      std::vector<std::pair<size_t, uint32_t>> table;  // (hash, base row)
      table.reserve(inputs[next].size());
      KeyView key;
      key.Reserve(keys.size());
      for (uint32_t id : inputs[next]) {
        const Tuple& row = base[next]->row(id);
        key.Clear();
        for (const JoinKey& k : keys) key.Add(row.at(k.next_attr));
        table.emplace_back(key.Hash(), id);
      }
      std::sort(table.begin(), table.end(),
                [](const std::pair<size_t, uint32_t>& a,
                   const std::pair<size_t, uint32_t>& b) {
                  return a.first < b.first;
                });
      if (stats != nullptr) {
        stats->join_key_allocs_avoided +=
            static_cast<long long>(inputs[next].size()) +
            static_cast<long long>(row_count);
      }
      ExecMeter meter(ctx);
      for (size_t r = 0; r < row_count; ++r) {
        const size_t row_base = r * static_cast<size_t>(stride);
        key.Clear();
        for (const JoinKey& k : keys) {
          key.Add(value_at(row_base, k.cur_atom, k.cur_attr));
        }
        const size_t h = key.Hash();
        auto [lo, hi] = std::equal_range(
            table.begin(), table.end(), std::pair<size_t, uint32_t>{h, 0},
            [](const std::pair<size_t, uint32_t>& a,
               const std::pair<size_t, uint32_t>& b) {
              return a.first < b.first;
            });
        for (auto it = lo; it != hi; ++it) {
          // Verify the candidate: strict component-wise Value equality
          // (the semantics of the projected-key Tuple comparison this
          // replaces).
          const Tuple& build_row = base[next]->row(it->second);
          bool match = true;
          for (size_t k = 0; k < keys.size(); ++k) {
            if (!(key.at(k) == build_row.at(keys[k].next_attr))) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          if (!meter.Tick(1, new_stride * 4)) return ctx->status();
          joined_rows.insert(joined_rows.end(),
                             current.begin() + static_cast<long>(row_base),
                             current.begin() + static_cast<long>(row_base) +
                                 stride);
          joined_rows.push_back(it->second);
        }
      }
    } else {
      // No connecting equality: cartesian product of index rows.
      joined_rows.reserve(row_count * inputs[next].size() *
                          static_cast<size_t>(new_stride));
      ExecMeter meter(ctx);
      for (size_t r = 0; r < row_count; ++r) {
        const size_t row_base = r * static_cast<size_t>(stride);
        for (uint32_t id : inputs[next]) {
          if (!meter.Tick(1, new_stride * 4)) return ctx->status();
          joined_rows.insert(joined_rows.end(),
                             current.begin() + static_cast<long>(row_base),
                             current.begin() + static_cast<long>(row_base) +
                                 stride);
          joined_rows.push_back(id);
        }
      }
    }
    if (stats != nullptr) {
      stats->intermediate_rows += static_cast<long long>(
          joined_rows.size() / static_cast<size_t>(new_stride));
    }
    current = std::move(joined_rows);
    slot_of_atom[next] = stride;
    stride = new_stride;
    joined.insert(next);
    apply_ready_conditions();
  }

  // --- Phase 3: the single materialization point — final projection,
  // deduplicated by the result relation.
  VIEWAUTH_ASSIGN_OR_RETURN(RelationSchema schema,
                            query.OutputSchema(result_name));
  Relation result(schema);
  const size_t row_count = current.size() / static_cast<size_t>(stride);
  const std::vector<ColumnRef>& targets = query.targets();
  const long long out_bytes =
      ApproxTupleBytes(static_cast<int>(targets.size()));
  ExecMeter meter(ctx);
  for (size_t r = 0; r < row_count; ++r) {
    if (!meter.Tick(1, out_bytes)) return ctx->status();
    const size_t row_base = r * static_cast<size_t>(stride);
    std::vector<Value> values;
    values.reserve(targets.size());
    for (const ColumnRef& ref : targets) {
      values.push_back(value_at(row_base, ref.atom, ref.attr));
    }
    result.InsertUnchecked(Tuple(std::move(values)));
  }
  if (stats != nullptr) {
    stats->tuples_materialized += static_cast<long long>(row_count);
    stats->output_rows = result.size();
  }
  return result;
}

}  // namespace viewauth
