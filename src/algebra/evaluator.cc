#include "algebra/evaluator.h"

#include <vector>

#include "algebra/scan.h"

namespace viewauth {

namespace {

// Evaluates a node into a bag of tuples (dedup happens at relation
// construction: the operators here preserve set semantics level by level).
// Every operator charges the rows it produces against `ctx` (when
// governed) and aborts mid-loop once the context trips — a cartesian
// product stops within one check stride of its budget, not at its end.
Result<std::vector<Tuple>> EvalNode(const PlanNode& node,
                                    const DatabaseInstance& db,
                                    EvalStats* stats, ExecContext* ctx) {
  switch (node.kind) {
    case PlanNodeKind::kScan: {
      VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel,
                                db.GetRelation(node.relation));
      ExecMeter meter(ctx);
      if (!ChargeScannedRows(
              stats, &meter, static_cast<long long>(rel->size()),
              static_cast<long long>(rel->size()) *
                  ApproxTupleBytes(rel->schema().arity())) ||
          !meter.Flush()) {
        return ctx->status();
      }
      return std::vector<Tuple>(rel->begin(), rel->end());
    }
    case PlanNodeKind::kProduct: {
      VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Tuple> left,
                                EvalNode(*node.left, db, stats, ctx));
      VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Tuple> right,
                                EvalNode(*node.right, db, stats, ctx));
      std::vector<Tuple> out;
      out.reserve(left.size() * right.size());
      const long long row_bytes =
          left.empty() || right.empty()
              ? 0
              : ApproxTupleBytes(left.front().arity() +
                                 right.front().arity());
      ExecMeter meter(ctx);
      for (const Tuple& l : left) {
        for (const Tuple& r : right) {
          if (!meter.Tick(1, row_bytes)) return ctx->status();
          out.push_back(Tuple::Concat(l, r));
        }
      }
      if (stats != nullptr) {
        stats->intermediate_rows += static_cast<long long>(out.size());
      }
      return out;
    }
    case PlanNodeKind::kSelection: {
      VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                                EvalNode(*node.child, db, stats, ctx));
      std::vector<Tuple> out;
      ExecMeter meter(ctx);
      for (Tuple& t : input) {
        if (!meter.TickRows(1)) return ctx->status();
        if (node.predicate.Matches(t)) out.push_back(std::move(t));
      }
      if (stats != nullptr) {
        stats->intermediate_rows += static_cast<long long>(out.size());
      }
      return out;
    }
    case PlanNodeKind::kProjection: {
      VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Tuple> input,
                                EvalNode(*node.child, db, stats, ctx));
      std::vector<Tuple> out;
      out.reserve(input.size());
      const long long row_bytes =
          ApproxTupleBytes(static_cast<int>(node.columns.size()));
      ExecMeter meter(ctx);
      for (const Tuple& t : input) {
        if (!meter.Tick(1, row_bytes)) return ctx->status();
        out.push_back(t.Project(node.columns));
      }
      if (stats != nullptr) {
        stats->intermediate_rows += static_cast<long long>(out.size());
      }
      return out;
    }
  }
  return Status::Internal("unhandled plan node kind");
}

}  // namespace

Result<Relation> EvaluatePlan(const PlanNode& plan, const DatabaseInstance& db,
                              const RelationSchema& output_schema,
                              EvalStats* stats, ExecContext* ctx) {
  VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                            EvalNode(plan, db, stats, ctx));
  Relation result(output_schema);
  for (Tuple& t : rows) {
    if (t.arity() != output_schema.arity()) {
      return Status::Internal("plan output arity " +
                              std::to_string(t.arity()) +
                              " does not match schema arity " +
                              std::to_string(output_schema.arity()));
    }
    result.InsertUnchecked(std::move(t));
  }
  if (stats != nullptr) stats->output_rows = result.size();
  return result;
}

Result<Relation> EvaluateCanonical(const ConjunctiveQuery& query,
                                   const DatabaseInstance& db,
                                   const std::string& result_name,
                                   EvalStats* stats, ExecContext* ctx) {
  std::unique_ptr<PlanNode> plan = BuildCanonicalPlan(query);
  VIEWAUTH_ASSIGN_OR_RETURN(RelationSchema schema,
                            query.OutputSchema(result_name));
  return EvaluatePlan(*plan, db, schema, stats, ctx);
}

}  // namespace viewauth
