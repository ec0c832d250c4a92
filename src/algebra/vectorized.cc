#include "algebra/vectorized.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <utility>

#include "algebra/scan.h"
#include "storage/column_batch.h"
#include "storage/key_view.h"

namespace viewauth {

namespace {

// A condition not yet applied, with the atoms it touches.
struct PendingCondition {
  CalculusCondition cond;
  std::set<int> atoms;
};

// Equality join keys match exactly when the canonical plan's selection
// does: Value::Satisfies(kEq), numeric across Int64 and Double, NULL
// matching nothing. Value::Hash is coherent with that equality except on
// Int64 values a double cannot hold exactly, so numeric key cells hash
// by their double image here.
size_t JoinKeyHash(const KeyView& key) {
  size_t h = 0x345678;
  for (size_t i = 0; i < key.size(); ++i) {
    const Value& v = key.at(i);
    h = h * 1000003 ^
        (v.is_numeric() ? std::hash<double>()(v.AsDouble()) : v.Hash());
  }
  return h;
}

// Phase 3's loop, shared by both answer forms: calls `emit(r)` for each
// row r of `rows` in batch windows, the governor ticked once per window
// for the window's rows and their ApproxTupleBytes over `arity` cells.
// Stops at the window that trips it.
template <typename Emit>
void ProjectRowIds(const RowIdAnswer& rows, size_t arity, EvalStats* stats,
                   ExecContext* ctx, Emit emit) {
  const size_t row_count = rows.size();
  const long long out_bytes = ApproxTupleBytes(static_cast<int>(arity));
  ExecMeter meter(ctx);
  for (size_t wb = 0; wb < row_count; wb += kColumnBatchRows) {
    const size_t n = std::min<size_t>(kColumnBatchRows, row_count - wb);
    if (!meter.Tick(static_cast<long long>(n),
                    static_cast<long long>(n) * out_bytes)) {
      return;
    }
    for (size_t r = wb; r < wb + n; ++r) emit(r);
    if (stats != nullptr) ++stats->batches_evaluated;
  }
  if (stats != nullptr) stats->output_rows = static_cast<long long>(row_count);
}

}  // namespace

bool KeepFirstOfEachProjection(const std::vector<ColumnRef>& targets,
                               RowIdAnswer* rows, ExecContext* ctx) {
  const size_t stride = static_cast<size_t>(rows->stride);
  const size_t row_count = rows->size();
  // Kept rows are compacted to the front as they are found, so a kept
  // row's position is at most the position of the row checked against
  // it.
  FirstOfEqualRows first_of_equal;
  size_t kept = 0;
  ExecMeter meter(ctx);
  for (size_t r = 0; r < row_count; ++r) {
    if (!meter.TickRows(1)) return false;
    if (!first_of_equal.Keep(
            targets.size(), kept,
            [&](size_t i) -> const Value& { return rows->cell(r, targets[i]); },
            [&](size_t k, size_t i, const Value& cell) {
              return rows->cell(k, targets[i]) == cell;
            })) {
      continue;
    }
    if (kept != r) {
      std::copy_n(rows->ids.begin() + static_cast<long>(r * stride), stride,
                  rows->ids.begin() + static_cast<long>(kept * stride));
    }
    ++kept;
  }
  rows->ids.resize(kept * stride);
  return true;
}

RowIdAnswer AllRowsOf(const Relation& rel) {
  RowIdAnswer rows;
  rows.base = {&rel};
  rows.slot_of_atom = {0};
  rows.ids.resize(static_cast<size_t>(rel.size()));
  std::iota(rows.ids.begin(), rows.ids.end(), 0);
  return rows;
}

std::vector<uint32_t> VectorizedSelectRowIds(const Relation& rel,
                                             const RelationSchema& schema,
                                             const ConjunctivePredicate& pred,
                                             EvalStats* stats,
                                             ExecContext* ctx) {
  // Index-served scans touch exactly the yielded rows; there is nothing
  // to gather. Delegating keeps the index paths (and their rows_scanned
  // accounting) in one place.
  if (HasIndexableAtom(schema, pred)) {
    return SelectRowIds(rel, schema, pred, stats, ctx);
  }

  // Full scans run the kernels chunk by chunk directly over the
  // relation's cached columnar images (Relation::ColumnOn): a sealed
  // chunk's flat per-column arrays are built once and shared by every
  // snapshot holding the chunk, so the per-scan cost is the kernels
  // alone — no per-window cell gathering. Selection entries are offsets
  // in the chunk.
  std::vector<uint32_t> out;
  ExecMeter meter(ctx);
  std::vector<uint32_t> sel;
  for (int c = 0; c < rel.num_chunks(); ++c) {
    const size_t n = rel.chunk(c).size();
    // Every row of the chunk is fetched and examined, whether or not any
    // kernel keeps it.
    if (!ChargeScannedRows(stats, &meter, static_cast<long long>(n))) break;
    ResetSelection(&sel, n);
    for (size_t a = 0; a < pred.atoms().size() && !sel.empty(); ++a) {
      const SelectionAtom& atom = pred.atoms()[a];
      const ColumnVector& lhs = rel.ColumnOn(c, atom.lhs_column);
      if (atom.rhs_is_column) {
        FilterColumnColumn(lhs, atom.op, rel.ColumnOn(c, atom.rhs_column),
                           &sel);
      } else {
        FilterColumnConst(lhs, atom.op, atom.rhs_const, &sel);
      }
    }
    const RowId chunk_base = static_cast<RowId>(c) << kChunkShift;
    for (uint32_t offset : sel) out.push_back(chunk_base | offset);
    if (stats != nullptr) ++stats->batches_evaluated;
  }
  return out;
}

Result<RowIdAnswer> EvaluateRowIds(const ConjunctiveQuery& query,
                                   const DatabaseInstance& db,
                                   EvalStats* stats, ExecContext* ctx) {
  const int num_atoms = static_cast<int>(query.atoms().size());

  // --- Phase 1: per-atom batched scans with pushed-down single-atom
  // conditions, yielding row-index arrays.
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
    inputs[i] = VectorizedSelectRowIds(*base[i], query.atom_schema(i),
                                       local[i], stats, ctx);
    if (ctx != nullptr && !ctx->ok()) return ctx->status();
  }

  // --- Phase 2: greedy join order over index rows.
  std::vector<int> slot_of_atom(num_atoms, -1);
  std::vector<uint32_t> current;  // row-major, `stride` entries per row
  std::set<int> joined;
  int stride = 0;

  auto value_at = [&](size_t row_base, int atom, int attr) -> const Value& {
    return base[atom]
        ->row(current[row_base + static_cast<size_t>(slot_of_atom[atom])])
        .at(attr);
  };

  // Conditions become applicable once all their atoms are joined. The
  // vectorized form gathers each referenced (atom, attr) column through
  // the row-id indirection one window at a time, runs the comparison as
  // a kernel over the gathered columns, and compacts `current` from the
  // surviving selection vector. Returns false once the governor trips.
  std::vector<uint32_t> lhs_ids;
  std::vector<uint32_t> rhs_ids;
  std::vector<uint32_t> sel;
  ColumnVector lhs_col;
  ColumnVector rhs_col;
  auto apply_ready_conditions = [&]() -> bool {
    for (auto it = pending.begin(); it != pending.end();) {
      bool ready = std::all_of(it->atoms.begin(), it->atoms.end(),
                               [&](int a) { return joined.contains(a); });
      if (!ready) {
        ++it;
        continue;
      }
      const CalculusCondition& c = it->cond;
      const size_t row_count = current.size() / static_cast<size_t>(stride);
      const size_t lhs_slot = static_cast<size_t>(slot_of_atom[c.lhs.atom]);
      size_t write = 0;
      ExecMeter meter(ctx);
      for (size_t wb = 0; wb < row_count; wb += kColumnBatchRows) {
        const size_t n = std::min<size_t>(kColumnBatchRows, row_count - wb);
        lhs_ids.resize(n);
        for (size_t i = 0; i < n; ++i) {
          lhs_ids[i] = current[(wb + i) * static_cast<size_t>(stride) +
                               lhs_slot];
        }
        const Relation& lhs_rel = *base[c.lhs.atom];
        lhs_col.Gather(n, c.lhs.attr, [&](size_t i) -> const Tuple& {
          return lhs_rel.row(lhs_ids[i]);
        });
        ResetSelection(&sel, n);
        if (c.rhs_is_column) {
          const size_t rhs_slot =
              static_cast<size_t>(slot_of_atom[c.rhs_column.atom]);
          rhs_ids.resize(n);
          for (size_t i = 0; i < n; ++i) {
            rhs_ids[i] = current[(wb + i) * static_cast<size_t>(stride) +
                                 rhs_slot];
          }
          const Relation& rhs_rel = *base[c.rhs_column.atom];
          rhs_col.Gather(n, c.rhs_column.attr, [&](size_t i) -> const Tuple& {
            return rhs_rel.row(rhs_ids[i]);
          });
          FilterColumnColumn(lhs_col, c.op, rhs_col, &sel);
        } else {
          FilterColumnConst(lhs_col, c.op, c.rhs_const, &sel);
        }
        for (uint32_t i : sel) {
          const size_t row_base =
              (wb + static_cast<size_t>(i)) * static_cast<size_t>(stride);
          if (write != row_base) {
            std::copy(current.begin() + static_cast<long>(row_base),
                      current.begin() + static_cast<long>(row_base) + stride,
                      current.begin() + static_cast<long>(write));
          }
          write += static_cast<size_t>(stride);
        }
        if (stats != nullptr) ++stats->batches_evaluated;
        if (!meter.TickRows(static_cast<long long>(n))) return false;
      }
      current.resize(write);
      it = pending.erase(it);
    }
    return true;
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
  if (!apply_ready_conditions()) return ctx->status();

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
      // Sorted-flat hash join over row ids: keys are hashed in place
      // over the referenced Values (storage/key_view.h, JoinKeyHash);
      // probes are binary searches over one contiguous (hash, base row)
      // array.
      std::vector<std::pair<size_t, uint32_t>> table;  // (hash, base row)
      table.reserve(inputs[next].size());
      KeyView key;
      key.Reserve(keys.size());
      for (uint32_t id : inputs[next]) {
        const Tuple& row = base[next]->row(id);
        key.Clear();
        for (const JoinKey& k : keys) key.Add(row.at(k.next_attr));
        table.emplace_back(JoinKeyHash(key), id);
      }
      std::sort(table.begin(), table.end(),
                [](const std::pair<size_t, uint32_t>& a,
                   const std::pair<size_t, uint32_t>& b) {
                  return a.first < b.first;
                });
      ExecMeter meter(ctx);
      for (size_t r = 0; r < row_count; ++r) {
        const size_t row_base = r * static_cast<size_t>(stride);
        key.Clear();
        for (const JoinKey& k : keys) {
          key.Add(value_at(row_base, k.cur_atom, k.cur_attr));
        }
        const size_t h = JoinKeyHash(key);
        auto [lo, hi] = std::equal_range(
            table.begin(), table.end(), std::pair<size_t, uint32_t>{h, 0},
            [](const std::pair<size_t, uint32_t>& a,
               const std::pair<size_t, uint32_t>& b) {
              return a.first < b.first;
            });
        for (auto it = lo; it != hi; ++it) {
          // Verify the candidate with the canonical selection's equality.
          const Tuple& build_row = base[next]->row(it->second);
          bool match = true;
          for (size_t k = 0; k < keys.size(); ++k) {
            if (!key.at(k).Satisfies(Comparator::kEq,
                                     build_row.at(keys[k].next_attr))) {
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
    if (!apply_ready_conditions()) return ctx->status();
  }

  // The rows of `current` are distinct row-id combinations, so a
  // projection that keeps every atom's identity yields distinct answer
  // rows; any other is deduplicated here, before any row is built.
  RowIdAnswer answer{std::move(base), std::move(slot_of_atom),
                     std::move(current), stride};
  if (!query.ProjectsDistinctRows() &&
      !KeepFirstOfEachProjection(query.targets(), &answer, ctx)) {
    return ctx->status();
  }
  if (stats != nullptr) {
    stats->output_rows = static_cast<long long>(answer.size());
  }
  return answer;
}

Relation MaterializeRowIds(const RowIdAnswer& rows,
                           const std::vector<ColumnRef>& targets,
                           RelationSchema schema, EvalStats* stats,
                           ExecContext* ctx) {
  Relation result(std::move(schema));
  ProjectRowIds(rows, targets.size(), stats, ctx, [&](size_t r) {
    std::vector<Value> values;
    values.reserve(targets.size());
    for (const ColumnRef& ref : targets) values.push_back(rows.cell(r, ref));
    result.AppendDistinct(Tuple(std::move(values)));
  });
  if (stats != nullptr) stats->tuples_materialized += result.size();
  return result;
}

ColumnAnswer GatherRowIds(const RowIdAnswer& rows,
                          const std::vector<ColumnRef>& targets,
                          RelationSchema schema, EvalStats* stats,
                          ExecContext* ctx) {
  ColumnAnswer result(std::move(schema));
  result.Reserve(rows.size());
  ProjectRowIds(rows, targets.size(), stats, ctx, [&](size_t r) {
    result.AppendRow(
        [&](size_t c) -> const Value& { return rows.cell(r, targets[c]); });
  });
  return result;
}

Result<Relation> EvaluateVectorized(const ConjunctiveQuery& query,
                                    const DatabaseInstance& db,
                                    const std::string& result_name,
                                    EvalStats* stats, ExecContext* ctx) {
  VIEWAUTH_ASSIGN_OR_RETURN(RowIdAnswer rows,
                            EvaluateRowIds(query, db, stats, ctx));
  VIEWAUTH_ASSIGN_OR_RETURN(RelationSchema schema,
                            query.OutputSchema(result_name));
  Relation result =
      MaterializeRowIds(rows, query.targets(), std::move(schema), stats, ctx);
  if (ctx != nullptr && !ctx->ok()) return ctx->status();
  return result;
}

}  // namespace viewauth
