#include "algebra/scan.h"

#include <algorithm>

namespace viewauth {

namespace {

// True when the column's declared type matches the constant's concrete
// type exactly, for the index-eligible types. (Double columns are
// excluded: they may store int64 values that compare equal but hash
// under a different strict type.)
bool ExactIndexType(ValueType column_type, const Value& constant) {
  return (column_type == ValueType::kInt64 && constant.is_int64()) ||
         (column_type == ValueType::kString && constant.is_string());
}

// An equality-with-constant atom that can use the lazy hash index, or
// -1. On a hit, *value is the probe constant.
int FindProbeAtom(const RelationSchema& schema,
                  const ConjunctivePredicate& pred, Value* value) {
  for (const SelectionAtom& atom : pred.atoms()) {
    if (atom.rhs_is_column || atom.op != Comparator::kEq) continue;
    if (ExactIndexType(schema.attribute(atom.lhs_column).type,
                       atom.rhs_const)) {
      if (value != nullptr) *value = atom.rhs_const;
      return atom.lhs_column;
    }
  }
  return -1;
}

// A one-sided range atom that can binary-search the ordered index, or
// -1. On a hit, *op / *value describe the bound.
int FindRangeAtom(const RelationSchema& schema,
                  const ConjunctivePredicate& pred, Comparator* op,
                  Value* value) {
  for (const SelectionAtom& atom : pred.atoms()) {
    if (atom.rhs_is_column) continue;
    if (atom.op != Comparator::kGe && atom.op != Comparator::kGt &&
        atom.op != Comparator::kLe && atom.op != Comparator::kLt) {
      continue;
    }
    if (ExactIndexType(schema.attribute(atom.lhs_column).type,
                       atom.rhs_const)) {
      if (op != nullptr) *op = atom.op;
      if (value != nullptr) *value = atom.rhs_const;
      return atom.lhs_column;
    }
  }
  return -1;
}

}  // namespace

bool HasIndexableAtom(const RelationSchema& schema,
                      const ConjunctivePredicate& pred) {
  return FindProbeAtom(schema, pred, nullptr) >= 0 ||
         FindRangeAtom(schema, pred, nullptr, nullptr) >= 0;
}

std::vector<uint32_t> SelectRowIds(const Relation& rel,
                                   const RelationSchema& schema,
                                   const ConjunctivePredicate& pred,
                                   EvalStats* stats, ExecContext* ctx) {
  std::vector<uint32_t> out;
  ExecMeter meter(ctx);

  Value probe_value;
  const int probe_column = FindProbeAtom(schema, pred, &probe_value);

  Comparator range_op = Comparator::kEq;
  Value range_value;
  const int range_column =
      probe_column >= 0
          ? -1
          : FindRangeAtom(schema, pred, &range_op, &range_value);

  if (probe_column >= 0) {
    rel.IndexOn(probe_column).ForEach(probe_value, [&](RowId id) {
      if (!ChargeScannedRows(stats, &meter, 1)) return false;
      if (pred.Matches(rel.row(id))) out.push_back(id);
      return true;
    });
  } else if (range_column >= 0) {
    // Every chunk's ordered index is binary-searched on its own, so ids
    // come out chunk by chunk, in value order within a chunk.
    auto value_less = [](const std::pair<Value, uint32_t>& entry,
                         const Value& probe) { return entry.first < probe; };
    auto probe_less = [](const Value& probe,
                         const std::pair<Value, uint32_t>& entry) {
      return probe < entry.first;
    };
    for (int c = 0; c < rel.num_chunks(); ++c) {
      const OrderedIndex& index = rel.OrderedIndexOn(c, range_column);
      OrderedIndex::const_iterator begin = index.begin();
      OrderedIndex::const_iterator end = index.end();
      switch (range_op) {
        case Comparator::kGe:
          begin = std::lower_bound(index.begin(), index.end(), range_value,
                                   value_less);
          break;
        case Comparator::kGt:
          begin = std::upper_bound(index.begin(), index.end(), range_value,
                                   probe_less);
          break;
        case Comparator::kLe:
          end = std::upper_bound(index.begin(), index.end(), range_value,
                                 probe_less);
          break;
        case Comparator::kLt:
          end = std::lower_bound(index.begin(), index.end(), range_value,
                                 value_less);
          break;
        default:
          break;
      }
      const RowId base = static_cast<RowId>(c) << kChunkShift;
      for (auto it = begin; it != end; ++it) {
        if (!ChargeScannedRows(stats, &meter, 1)) return out;
        const RowId id = base | it->second;
        if (pred.Matches(rel.row(id))) out.push_back(id);
      }
    }
  } else {
    for (RowId id = 0; id < static_cast<RowId>(rel.size()); ++id) {
      if (!ChargeScannedRows(stats, &meter, 1)) break;
      if (pred.Matches(rel.row(id))) out.push_back(id);
    }
  }
  return out;
}

}  // namespace viewauth
