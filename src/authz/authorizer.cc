#include "authz/authorizer.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "algebra/vectorized.h"
#include "storage/column_batch.h"
#include "common/str_util.h"
#include "meta/self_join.h"

namespace viewauth {

namespace {

using SteadyClock = std::chrono::steady_clock;

long long MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             SteadyClock::now() - start)
      .count();
}

// Cache key of a decision: its kind tag (exact or class), the user, the
// mask flavor (final or wide), every option that changes the derived
// tuples, the plan (only the vectorized plan's decisions carry a
// compiled mask), and the query's signature: canonical for the exact
// key, by order class for the class key.
std::string DecisionCacheKey(std::string_view tag, std::string_view user,
                             const std::string& signature,
                             const AuthorizationOptions& o, bool wide) {
  std::string key(tag);
  key += user;
  key += wide ? "|W|" : "|F|";
  key += o.padding ? 'p' : '-';
  key += o.four_case ? 'f' : '-';
  key += o.subsumption ? 's' : '-';
  key += o.prune_dangling ? 'd' : '-';
  key += o.self_joins ? 'j' : '-';
  key += o.use_optimized_data_plan ? 'v' : 'c';
  key += "|";
  key += signature;
  return key;
}

// The product-column indices of the query's requested columns.
std::vector<int> TargetColumns(const ConjunctiveQuery& query) {
  std::vector<int> targets;
  targets.reserve(query.targets().size());
  for (const ColumnRef& target : query.targets()) {
    targets.push_back(query.FlatIndex(target));
  }
  return targets;
}

// The mask columns step 5 delivers, in answer order: the requested
// columns of a wide mask, or every column of a final one.
std::vector<int> DeliveredColumns(const ConjunctiveQuery& query, bool wide) {
  if (wide) return TargetColumns(query);
  std::vector<int> all(query.targets().size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// Every column of `rel`, in order, as columns of its one-atom row-id
// answer (AllRowsOf).
std::vector<ColumnRef> ColumnsOf(const Relation& rel) {
  std::vector<ColumnRef> columns(static_cast<size_t>(rel.schema().arity()));
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c] = ColumnRef{0, static_cast<int>(c)};
  }
  return columns;
}

// The read set of a derivation for (user, query): the user and the
// query's base relations.
AuthzDependencies QueryScope(std::string_view user,
                             const ConjunctiveQuery& query) {
  AuthzDependencies deps;
  deps.user = std::string(user);
  for (const MembershipAtom& atom : query.atoms()) {
    deps.relations.insert(atom.relation);
  }
  return deps;
}

// Cache key of an entry derived from a user's prepared meta-relations:
// its kind tag, the user, `detail` (the target relation of a prepared
// meta-relation, empty for a profile), the relation set of the query
// (the pruning scope) and the self-join setting.
std::string PreparedCacheKey(std::string_view tag,
                             const AuthzDependencies& scope,
                             std::string_view detail,
                             const AuthorizationOptions& options) {
  std::string key(tag);
  key += scope.user;
  key += "|";
  key += detail;
  key += "|";
  for (const std::string& r : scope.relations) {
    key += r;
    key += ",";
  }
  key += options.self_joins ? "|j" : "|-";
  return key;
}

// The paper's pruning: of the user's granted views, keep those "defined
// in these relations in their entirety" -- every relation the view
// mentions is one of `scope.relations`.
std::vector<const ViewDefinition*> CoveredViews(
    const ViewCatalog& catalog, const AuthzDependencies& scope) {
  std::vector<const ViewDefinition*> covered;
  for (const ViewDefinition* view : catalog.PermittedViews(scope.user)) {
    if (std::all_of(view->relations.begin(), view->relations.end(),
                    [&](const std::string& r) {
                      return scope.relations.contains(r);
                    })) {
      covered.push_back(view);
    }
  }
  return covered;
}

// A withheld cell: NULL.
const Value& Withheld() {
  static const Value kWithheld;
  return kWithheld;
}

// Step 5's delivery rule, shared by the interpretive and the vectorized
// mask application. Each mask tuple is a separate permitted view of the
// answer; its rows are delivered with exactly its projected columns.
// Portions from different mask tuples are NOT merged cell-wise into one
// row: showing tuple-1's columns and tuple-2's columns side by side would
// reveal their association, which is derivable from the permitted views
// only when a (self-)joined mask tuple grants the combination explicitly.
class Delivery {
 public:
  // `projected(t, col)`: whether mask tuple t projects product column
  // `col`. Delivered rows hold the `target_columns` of the product.
  template <typename Projected>
  Delivery(size_t num_tuples, const std::vector<int>& target_columns,
           Projected projected)
      : target_columns_(target_columns),
        grants_(num_tuples, std::vector<bool>(target_columns.size())),
        relevant_(num_tuples, false),
        pattern_(num_tuples) {
    std::map<std::vector<bool>, size_t> first_with;
    for (size_t t = 0; t < num_tuples; ++t) {
      for (size_t i = 0; i < target_columns.size(); ++i) {
        if (projected(t, target_columns[i])) {
          grants_[t][i] = true;
          relevant_[t] = true;
        }
      }
      pattern_[t] = first_with.emplace(grants_[t], t).first->second;
    }
  }

  // Whether mask tuple t grants any delivered column.
  bool relevant(size_t t) const { return relevant_[t]; }

  // The first mask tuple that grants exactly the delivered columns
  // mask tuple t grants: tuples of one pattern deliver a row alike.
  size_t pattern(size_t t) const { return pattern_[t]; }

  // Whether every relevant mask tuple grants every delivered column:
  // then each delivered row is its answer row's delivered cells, whichever
  // tuple delivers it.
  bool grants_whole_rows() const {
    for (size_t t = 0; t < grants_.size(); ++t) {
      if (relevant_[t] && std::find(grants_[t].begin(), grants_[t].end(),
                                    false) != grants_[t].end()) {
        return false;
      }
    }
    return true;
  }

  // Delivered cell i of the row whose i-th delivered cell is `cell(i)`,
  // as mask tuple t delivers it: the row's value when t grants the
  // column, withheld otherwise.
  template <typename CellAt>
  const Value& CellOf(size_t t, size_t i, CellAt cell) const {
    return grants_[t][i] ? cell(i) : Withheld();
  }

  // Appends the row holding every mask column as mask tuple t delivers
  // it.
  void Deliver(size_t t, const Tuple& row, Relation* out) const {
    std::vector<Value> values;
    values.reserve(target_columns_.size());
    for (size_t i = 0; i < target_columns_.size(); ++i) {
      values.push_back(CellOf(t, i, [&](size_t k) -> const Value& {
        return row.at(target_columns_[k]);
      }));
    }
    out->InsertUnchecked(Tuple(std::move(values)));
  }

  // Appends the all-withheld row kept when fully masked rows are not
  // dropped.
  void DeliverWithheld(Relation* out) const {
    out->InsertUnchecked(Tuple(std::vector<Value>(target_columns_.size())));
  }

 private:
  const std::vector<int>& target_columns_;
  std::vector<std::vector<bool>> grants_;
  std::vector<bool> relevant_;
  std::vector<size_t> pattern_;
};

}  // namespace

Result<MetaRelation> Authorizer::PrunedMetaRelation(
    std::string_view user, const ConjunctiveQuery& query, int atom,
    const AuthorizationOptions& options) const {
  std::optional<ExecContext> local;
  const ExecLimits limits = ExecLimitsOf(options);
  if (limits.any()) local.emplace(limits);
  AuthzCacheTxn txn(cache_, *catalog_, db_->ddl_version());
  VIEWAUTH_ASSIGN_OR_RETURN(
      std::shared_ptr<const MetaRelation> prepared,
      PrunedMetaRelationGoverned(user, query, atom, options,
                                 local.has_value() ? &*local : nullptr, &txn));
  txn.Commit();
  return *prepared;
}

Result<std::shared_ptr<const MetaRelation>>
Authorizer::PrunedMetaRelationGoverned(
    std::string_view user, const ConjunctiveQuery& query, int atom,
    const AuthorizationOptions& options, ExecContext* ctx,
    AuthzCacheTxn* txn) const {
  if (atom < 0 || atom >= static_cast<int>(query.atoms().size())) {
    return Status::InvalidArgument("atom index out of range");
  }
  const std::string& relation = query.atoms()[atom].relation;
  const RelationSchema& schema = query.atom_schema(atom);
  AuthzDependencies deps = QueryScope(user, query);

  // Cache lookup: the result depends only on the user, the target
  // relation, the set of query relations (the pruning scope), and the
  // self-join setting. Freshness is the txn's generation check.
  const bool use_cache = cache_ != nullptr && options.enable_authz_cache;
  std::string cache_key;
  if (use_cache) {
    cache_key = PreparedCacheKey(kPreparedTag, deps, relation, options);
    if (std::shared_ptr<const MetaRelation> cached =
            txn->LookupPrepared(cache_key)) {
      return cached;
    }
  }

  MetaRelation out(schema.attributes());
  for (const ViewDefinition* view : CoveredViews(*catalog_, deps)) {
    for (size_t i = 0; i < view->tuples.size(); ++i) {
      if (view->tuple_relations[i] == relation) {
        out.Add(view->tuples[i]);
      }
    }
  }
  if (options.self_joins) out = WithSelfJoins(out, schema);
  // Charge the prepared meta-relation in one batch (self-join inference
  // can expand it well past the stored tuples).
  if (ctx != nullptr &&
      !ctx->Tick(out.size(),
                 static_cast<long long>(out.size()) * 64 * schema.arity())) {
    return ctx->status();
  }
  auto prepared = std::make_shared<const MetaRelation>(std::move(out));
  if (use_cache) {
    txn->Store(std::move(cache_key), prepared, std::move(deps));
  }
  return prepared;
}

std::string MaskTrace::ToString() const {
  std::ostringstream out;
  out << "authorization trace:\n";
  for (const OperandStage& stage : operands) {
    out << "  " << stage.relation << "': " << stage.view_tuples
        << " stored tuple(s)";
    if (stage.with_self_joins != stage.view_tuples) {
      out << " -> " << stage.with_self_joins << " with self-joins";
    }
    out << "\n";
  }
  out << "  products: " << after_products << " combined tuple(s), "
      << after_dangling_prune << " after pruning\n";
  for (const SelectionStage& stage : selections) {
    out << "  select " << stage.predicate << ": " << stage.before
        << " -> " << stage.after << "\n";
  }
  out << "  projection: " << after_projection << " tuple(s)\n"
      << "  final mask: " << final_mask << " tuple(s)\n";
  return out.str();
}

Result<MaskTrace> Authorizer::Explain(std::string_view user,
                                      const ConjunctiveQuery& query,
                                      const AuthorizationOptions& options)
    const {
  MaskTrace trace;
  VIEWAUTH_RETURN_NOT_OK(
      DeriveMask(user, query, options, nullptr, &trace).status());
  return trace;
}

Result<MetaRelation> Authorizer::DeriveMask(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, MetaRelation* product_stage,
    MaskTrace* trace) const {
  std::optional<ExecContext> local;
  const ExecLimits limits = ExecLimitsOf(options);
  if (limits.any()) local.emplace(limits);
  ExecContext* ctx = local.has_value() ? &*local : nullptr;
  AuthzCacheTxn txn(cache_, *catalog_, db_->ddl_version());
  // The final mask depends only on the user, the query signature (or the
  // order class of its constants) and the options in the decision key,
  // so a decision built by an earlier Retrieve answers it whenever no
  // intermediate stage was requested.
  Operands operands;
  if (cache_ != nullptr && options.enable_authz_cache &&
      product_stage == nullptr && trace == nullptr) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        DecisionKeys keys,
        KeysFor(user, query, options, /*wide=*/false, &operands, ctx, &txn));
    if (std::shared_ptr<const Decision> hit =
            txn.LookupDecision(keys.by_class, keys.exact)) {
      txn.Commit();
      return hit->mask;
    }
  }
  Result<MetaRelation> result =
      DeriveMaskGoverned(user, query, options, std::move(operands),
                         /*wide=*/false, product_stage, trace, ctx, &txn);
  if (result.ok()) txn.Commit();
  return result;
}

Result<Authorizer::Operands> Authorizer::PreparedOperands(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, MaskTrace* trace, ExecContext* ctx,
    AuthzCacheTxn* txn) const {
  // Per-relation meta-relations are identical for repeated occurrences;
  // compute once per relation name.
  Operands per_relation;
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const std::string& rel = query.atoms()[a].relation;
    if (per_relation.contains(rel)) continue;
    const int atom = static_cast<int>(a);
    if (trace != nullptr) {
      AuthorizationOptions bare = options;
      bare.self_joins = false;
      bare.enable_authz_cache = false;
      VIEWAUTH_ASSIGN_OR_RETURN(
          std::shared_ptr<const MetaRelation> stored,
          PrunedMetaRelationGoverned(user, query, atom, bare, ctx, txn));
      trace->operands.push_back(
          MaskTrace::OperandStage{rel, stored->size(), 0});
    }
    VIEWAUTH_ASSIGN_OR_RETURN(
        std::shared_ptr<const MetaRelation> meta,
        PrunedMetaRelationGoverned(user, query, atom, options, ctx, txn));
    if (trace != nullptr) trace->operands.back().with_self_joins = meta->size();
    per_relation.emplace(rel, std::move(meta));
  }
  return per_relation;
}

Result<Authorizer::DecisionKeys> Authorizer::KeysFor(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, bool wide, Operands* operands,
    ExecContext* ctx, AuthzCacheTxn* txn) const {
  DecisionKeys keys;
  keys.exact = DecisionCacheKey(kExactDecisionTag, user,
                                query.CanonicalSignature(), options, wide);
  // A query without constants has nothing to abstract: its exact key is
  // its class.
  if (std::none_of(query.conditions().begin(), query.conditions().end(),
                   [](const CalculusCondition& c) {
                     return !c.rhs_is_column;
                   })) {
    return keys;
  }
  const AuthzDependencies scope = QueryScope(user, query);
  std::string profile_key =
      PreparedCacheKey(kProfileTag, scope, "", options);
  std::shared_ptr<const ConstantProfile> profile =
      txn->LookupProfile(profile_key);
  if (profile == nullptr) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        *operands, PreparedOperands(user, query, options, nullptr, ctx, txn));
    profile = std::make_shared<const ConstantProfile>(
        ConstantProfile::Build(*operands));
    txn->Store(std::move(profile_key), profile, scope);
  }
  keys.constant_class = profile->ClassOf(query);
  if (keys.constant_class.has_value()) {
    keys.by_class = DecisionCacheKey(kClassDecisionTag, user,
                                     keys.constant_class->signature, options,
                                     wide);
  }
  return keys;
}

Result<MetaRelation> Authorizer::DeriveMaskGoverned(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, Operands per_relation, bool wide,
    MetaRelation* product_stage, MaskTrace* trace, ExecContext* ctx,
    AuthzCacheTxn* txn) const {
  MetaOpOptions op_options;
  op_options.padding = options.padding;
  op_options.four_case = options.four_case;

  if (per_relation.empty()) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        per_relation, PreparedOperands(user, query, options, trace, ctx, txn));
  }

  // S' step 1: all products first (the paper's canonical strategy).
  // Hopeless tuples — those missing an atom of a relation that no
  // remaining operand ranges over — are pruned from each raw product
  // rather than multiplied, and duplicate elimination then keeps the
  // padded products from stacking combinatorially. Pruning first spares
  // the keys of the tuples it drops; the two steps commute (see
  // PruneHopeless), so the order does not change the result.
  long long pruned = 0;  // hopeless + dangling tuples removed
  MetaRelation current;
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const MetaRelation& operand = *per_relation.at(query.atoms()[a].relation);
    if (a == 0) {
      current = operand;  // a copy: the operand may be shared with the cache
    } else {
      current = MetaProduct(current, operand, op_options, ctx);
      if (ctx != nullptr && !ctx->ok()) return ctx->status();
    }
    if (options.prune_dangling) {
      std::map<std::string, int> remaining;
      for (size_t b = a + 1; b < query.atoms().size(); ++b) {
        ++remaining[query.atoms()[b].relation];
      }
      const int before = current.size();
      current = PruneHopeless(std::move(current), remaining,
                              catalog_->atom_info());
      pruned += before - current.size();
    }
    current = RemoveDuplicates(std::move(current));
  }

  if (trace != nullptr) trace->after_products = current.size();

  // Prune combined tuples that reference meta-tuples outside the result,
  // and tuples that project nothing (padding residue): no later operator
  // ever adds a projected column, so they can never contribute to the
  // mask. Both are filters over a duplicate-free relation, so no second
  // duplicate elimination is needed.
  if (options.prune_dangling) {
    const int before = current.size();
    current = PruneDanglingTuples(std::move(current));
    pruned += before - current.size();
  }
  {
    MetaRelation projecting(current.columns());
    for (MetaTuple& tuple : current.tuples()) {
      bool any_star = false;
      for (const MetaCell& cell : tuple.cells()) {
        if (cell.projected) {
          any_star = true;
          break;
        }
      }
      if (any_star) projecting.Add(std::move(tuple));
    }
    current = std::move(projecting);
  }
  if (trace != nullptr) trace->after_dangling_prune = current.size();
  if (product_stage != nullptr) *product_stage = current;

  // S' step 2: selections.
  std::vector<std::string> product_names = query.ProductColumnNames();
  for (const CalculusCondition& cond : query.conditions()) {
    MetaSelection sel =
        cond.rhs_is_column
            ? MetaSelection::ColumnColumn(query.FlatIndex(cond.lhs), cond.op,
                                          query.FlatIndex(cond.rhs_column))
            : MetaSelection::ColumnConst(query.FlatIndex(cond.lhs), cond.op,
                                         cond.rhs_const);
    const int before = current.size();
    current = MetaSelect(std::move(current), sel, op_options,
                         catalog_->synthetic_allocator(), ctx);
    if (ctx != nullptr && !ctx->ok()) return ctx->status();
    if (trace != nullptr) {
      std::string predicate =
          product_names[static_cast<size_t>(query.FlatIndex(cond.lhs))];
      predicate += " ";
      predicate += ComparatorToString(cond.op);
      predicate += " ";
      predicate += cond.rhs_is_column
                       ? product_names[static_cast<size_t>(
                             query.FlatIndex(cond.rhs_column))]
                       : cond.rhs_const.ToDisplayString(false);
      trace->selections.push_back(MaskTrace::SelectionStage{
          std::move(predicate), before, current.size()});
    }
  }

  // Four-case post-pass: a conjunction of query predicates may jointly
  // imply a tuple's restriction even when no single predicate does
  // (the paper's case "between 400,000 and 500,000" against the view
  // "between 300,000 and 600,000"). Express the query's full selection
  // over column terms and clear implied cells.
  if (options.four_case) {
    // The implied-restriction pass may call the constraint solver per
    // tuple; probe the deadline once before entering it.
    if (ctx != nullptr && !ctx->CheckNow()) return ctx->status();
    auto column_term = [](int col) -> TermId { return -(col + 1); };
    ConstraintSet lambda;
    {
      int col = 0;
      for (size_t a = 0; a < query.atoms().size(); ++a) {
        const RelationSchema& rel = query.atom_schema(static_cast<int>(a));
        for (int i = 0; i < rel.arity(); ++i, ++col) {
          lambda.DeclareTermType(column_term(col), rel.attribute(i).type);
        }
      }
    }
    for (const CalculusCondition& cond : query.conditions()) {
      if (cond.rhs_is_column) {
        lambda.AddTermTerm(column_term(query.FlatIndex(cond.lhs)), cond.op,
                           column_term(query.FlatIndex(cond.rhs_column)));
      } else {
        lambda.AddTermConst(column_term(query.FlatIndex(cond.lhs)), cond.op,
                            cond.rhs_const);
      }
    }
    ClearImpliedRestrictions(&current, lambda, column_term);
  }

  txn->stats().meta_tuples_pruned += pruned;

  // S' step 3: the final projection onto the requested columns, whose
  // mask is named like the answer. A wide mask skips it and keeps every
  // product column under its qualified name.
  std::vector<Attribute> columns;
  if (wide) {
    const std::vector<std::string> names = query.ProductColumnNames();
    for (size_t a = 0; a < query.atoms().size(); ++a) {
      for (const Attribute& attribute :
           query.atom_schema(static_cast<int>(a)).attributes()) {
        columns.push_back(Attribute{names[columns.size()], attribute.type});
      }
    }
  } else {
    current = MetaProject(std::move(current), TargetColumns(query));
    const std::vector<std::string> names = query.OutputColumnNames();
    const std::vector<ValueType> types = query.OutputColumnTypes();
    for (size_t i = 0; i < names.size(); ++i) {
      columns.push_back(Attribute{names[i], types[i]});
    }
  }
  if (trace != nullptr) trace->after_projection = current.size();
  MetaRelation mask(std::move(columns));
  for (MetaTuple& tuple : current.tuples()) {
    mask.Add(std::move(tuple));
  }

  // Products are done: provenance no longer matters, so tuples that
  // differ only in their origins collapse.
  mask = RemoveDuplicates(std::move(mask), /*respect_provenance=*/false);
  if (options.subsumption) mask = RemoveSubsumed(mask);
  if (trace != nullptr) trace->final_mask = mask.size();
  return mask;
}

bool Authorizer::RowSatisfies(const MetaTuple& tuple, const Tuple& row) {
  // One pass over the cells: constant cells compare directly; every
  // variable cell binds its variable to the row's value, a variable
  // spanning several cells requiring equal values. (All checks are
  // conjunctive, so the merged pass decides identically to checking
  // constants first.)
  std::map<TermId, Value> assignment;
  for (int i = 0; i < tuple.arity(); ++i) {
    const MetaCell& cell = tuple.cells()[i];
    if (cell.kind == CellKind::kConst) {
      if (!row.at(i).Satisfies(Comparator::kEq, cell.constant)) return false;
    } else if (cell.kind == CellKind::kVar) {
      if (row.at(i).is_null()) return false;
      auto [it, inserted] = assignment.emplace(cell.var, row.at(i));
      if (!inserted && !it->second.Satisfies(Comparator::kEq, row.at(i))) {
        return false;
      }
    }
  }
  if (assignment.empty() && tuple.constraints().atom_count() == 0) {
    return true;
  }

  // Fast path: when every constrained term has a cell binding, the atoms
  // evaluate directly — no solver involved.
  bool total = true;
  for (TermId term : tuple.constraints().MentionedTerms()) {
    if (!assignment.contains(term)) {
      total = false;
      break;
    }
  }
  if (total) return tuple.constraints().Satisfied(assignment);

  // Store-only (existential) variables remain: delegate to the solver.
  ConstraintSet check = tuple.constraints();
  for (const auto& [var, value] : assignment) {
    check.AddTermConst(var, Comparator::kEq, value);
  }
  return check.IsSatisfiable();
}

Relation Authorizer::ApplyMask(const Relation& answer,
                               const MetaRelation& mask,
                               bool drop_fully_masked_rows,
                               ExecContext* ctx) {
  if (mask.empty()) return Relation(answer.schema());
  // Every column of the answer is a delivered column.
  std::vector<int> all_columns(static_cast<size_t>(answer.schema().arity()));
  std::iota(all_columns.begin(), all_columns.end(), 0);
  return ApplyWideMask(answer, mask, all_columns, answer.schema(),
                       drop_fully_masked_rows, ctx);
}

Relation Authorizer::ApplyMaskVectorized(const Relation& answer,
                                         const CompiledMask& mask,
                                         bool drop_fully_masked_rows,
                                         ExecContext* ctx, EvalStats* stats) {
  if (mask.tuples.empty()) return Relation(answer.schema());
  // Every column of the answer is a delivered column.
  std::vector<int> all_columns(static_cast<size_t>(answer.schema().arity()));
  std::iota(all_columns.begin(), all_columns.end(), 0);
  return ApplyWideMaskVectorized(AllRowsOf(answer), ColumnsOf(answer), mask,
                                 all_columns, answer.schema(),
                                 drop_fully_masked_rows, ctx, stats)
      .Materialize();
}

Relation Authorizer::ApplyWideMask(const Relation& wide_answer,
                                   const MetaRelation& wide_mask,
                                   const std::vector<int>& target_columns,
                                   const RelationSchema& answer_schema,
                                   bool drop_fully_masked_rows,
                                   ExecContext* ctx) {
  Relation out(answer_schema);
  const size_t num_tuples = wide_mask.tuples().size();
  const Delivery delivery(num_tuples, target_columns, [&](size_t t, int col) {
    return wide_mask.tuples()[t].cells()[col].projected;
  });
  ExecMeter meter(ctx);
  for (const Tuple& wide_row : wide_answer) {
    if (!meter.TickRows(1)) break;
    bool any = false;
    for (size_t t = 0; t < num_tuples; ++t) {
      if (!delivery.relevant(t)) continue;
      if (!RowSatisfies(wide_mask.tuples()[t], wide_row)) continue;
      any = true;
      delivery.Deliver(t, wide_row, &out);
    }
    if (!any && !drop_fully_masked_rows) delivery.DeliverWithheld(&out);
  }
  return out;
}

ColumnAnswer Authorizer::ApplyWideMaskVectorized(
    const RowIdAnswer& rows, const std::vector<ColumnRef>& columns,
    const CompiledMask& wide_mask, const std::vector<int>& target_columns,
    const RelationSchema& answer_schema, bool drop_fully_masked_rows,
    ExecContext* ctx, EvalStats* stats) {
  ColumnAnswer out(answer_schema);
  const size_t num_tuples = wide_mask.tuples.size();
  const Delivery delivery(num_tuples, target_columns, [&](size_t t, int col) {
    return wide_mask.tuples[t].IsProjected(col);
  });
  std::vector<ColumnSource> sources;
  sources.reserve(columns.size());
  for (const ColumnRef& ref : columns) {
    sources.push_back(ColumnSource{rows.base[ref.atom],
                                   rows.slot_of_atom[ref.atom], ref.attr});
  }
  std::vector<ColumnRef> delivered;
  delivered.reserve(target_columns.size());
  std::vector<bool> covered(columns.size(), false);
  for (int col : target_columns) {
    delivered.push_back(columns[col]);
    covered[static_cast<size_t>(col)] = true;
  }
  // The rule path: the rows are distinct over `columns`, so when the
  // delivered columns are all of them and every relevant tuple grants
  // every one, each delivered row is its distinct answer row — an answer
  // row is delivered once (by its first accepting tuple) and no probe is
  // needed. Otherwise a withheld cell can make two delivered rows equal,
  // and the filter keeps the first of each.
  const bool whole_rows =
      drop_fully_masked_rows && delivery.grants_whole_rows() &&
      std::find(covered.begin(), covered.end(), false) == covered.end();
  // The filter: appends the row whose k-th cell is `cell(k)` unless an
  // equal row was delivered before.
  FirstOfEqualRows first_of_equal;
  const size_t arity = target_columns.size();
  auto deliver_first = [&](auto cell) {
    if (first_of_equal.Keep(arity, static_cast<size_t>(out.size()), cell,
                            [&](size_t r, size_t k, const Value& value) {
                              return out.column(k).CellEquals(r, value);
                            })) {
      out.AppendRow(cell);
    }
  };

  // Per batch: one bitmap word-run per mask tuple recording which batch
  // ordinals it accepted. The kernels run tuple-major (so each gathered
  // column is reused across tuples), while delivery below runs row-major
  // — identical delivery order to the interpretive ApplyWideMask. Only
  // delivered cells are copied, and their rows' bytes are the ones
  // charged.
  const size_t words = (kColumnBatchRows + 63) / 64;
  std::vector<uint64_t> bits(num_tuples * words);
  const long long row_bytes =
      ApproxTupleBytes(static_cast<int>(target_columns.size()));
  ColumnBatch batch;
  std::vector<uint32_t> sel;
  // offered[p]: the last row offered to the filter as pattern p delivers
  // it. A later tuple of that pattern would build the same row, which the
  // filter drops, so each row is offered once per pattern.
  std::vector<size_t> offered(num_tuples, SIZE_MAX);
  ExecMeter meter(ctx);
  const size_t row_count = rows.size();
  const size_t stride = static_cast<size_t>(rows.stride);
  for (size_t wb = 0; wb < row_count; wb += kColumnBatchRows) {
    const size_t n = std::min<size_t>(kColumnBatchRows, row_count - wb);
    if (!meter.TickRows(static_cast<long long>(n))) break;
    batch.Reset(sources, rows.ids.data() + wb * stride, n, rows.stride);
    std::fill(bits.begin(), bits.end(), 0);
    bool any_delivery = false;
    for (size_t t = 0; t < num_tuples; ++t) {
      if (!delivery.relevant(t)) continue;
      ResetSelection(&sel, n);
      wide_mask.tuples[t].FilterBatch(&batch, &sel);
      if (stats != nullptr) ++stats->mask_batch_applies;
      for (uint32_t i : sel) {
        bits[t * words + i / 64] |= uint64_t{1} << (i % 64);
        any_delivery = true;
      }
    }
    if (!any_delivery && drop_fully_masked_rows) continue;
    const int before = out.size();
    for (size_t i = 0; i < n; ++i) {
      auto answer_cell = [&](size_t k) -> const Value& {
        return rows.cell(wb + i, delivered[k]);
      };
      bool any = false;
      for (size_t t = 0; t < num_tuples; ++t) {
        if (((bits[t * words + i / 64] >> (i % 64)) & 1) == 0) continue;
        any = true;
        if (whole_rows) {
          out.AppendRow(answer_cell);
          break;
        }
        const size_t pattern = delivery.pattern(t);
        if (offered[pattern] == wb + i) continue;
        offered[pattern] = wb + i;
        deliver_first([&](size_t k) -> const Value& {
          return delivery.CellOf(t, k, answer_cell);
        });
      }
      if (!any && !drop_fully_masked_rows) {
        deliver_first([](size_t) -> const Value& { return Withheld(); });
      }
    }
    if (!meter.Tick(0, (out.size() - before) * row_bytes)) break;
  }
  return out;
}

Relation RawAnswer::Materialize() const {
  if (!ids_.has_value()) return rows_;
  return MaterializeRowIds(*ids_, targets_, rows_.schema());
}

std::vector<InferredPermit> Authorizer::DescribeMask(
    const MetaRelation& mask) const {
  std::vector<std::string> display;
  for (const Attribute& column : mask.columns()) display.push_back(column.name);
  Decision described;
  Describe(mask, display,
           std::vector<bool>(static_cast<size_t>(mask.arity()), true),
           &described);
  return std::move(described.permits);
}

void Authorizer::Describe(const MetaRelation& mask,
                          const std::vector<std::string>& display,
                          const std::vector<bool>& requested,
                          Decision* decision) const {
  std::vector<InferredPermit>& permits = decision->permits;
  RenderedPermits rendered;
  std::set<std::string> seen;
  for (const MetaTuple& tuple : mask.tuples()) {
    InferredPermit permit;
    for (int i = 0; i < tuple.arity(); ++i) {
      if (tuple.cells()[i].projected && requested[static_cast<size_t>(i)]) {
        permit.columns.push_back(display[static_cast<size_t>(i)]);
      }
    }
    if (permit.columns.empty()) continue;

    std::vector<std::string> where_parts;
    // Constant cells.
    for (int i = 0; i < tuple.arity(); ++i) {
      const MetaCell& cell = tuple.cells()[i];
      if (cell.kind == CellKind::kConst) {
        where_parts.push_back(display[static_cast<size_t>(i)] + " = " +
                              cell.constant.ToDisplayString(false));
      }
    }
    // Shared variables: column equalities.
    std::map<VarId, std::vector<int>> var_cols;
    for (int i = 0; i < tuple.arity(); ++i) {
      const MetaCell& cell = tuple.cells()[i];
      if (cell.kind == CellKind::kVar) var_cols[cell.var].push_back(i);
    }
    for (const auto& [var, cols] : var_cols) {
      (void)var;
      for (size_t k = 1; k < cols.size(); ++k) {
        where_parts.push_back(display[static_cast<size_t>(cols[0])] + " = " +
                              display[static_cast<size_t>(cols[k])]);
      }
    }
    // Comparative constraints on cell variables, rendered with column
    // names.
    std::set<VarId> vars = tuple.CellVars();
    std::vector<TermId> terms(vars.begin(), vars.end());
    auto namer = [&](TermId term) -> std::string {
      auto it = var_cols.find(term);
      if (it != var_cols.end()) {
        return display[static_cast<size_t>(it->second[0])];
      }
      return catalog_->VarName(term);
    };
    for (const ConstraintAtom& atom : tuple.constraints().ExportAtoms(terms)) {
      where_parts.push_back(atom.ToString(namer));
    }

    std::sort(where_parts.begin(), where_parts.end());
    where_parts.erase(std::unique(where_parts.begin(), where_parts.end()),
                      where_parts.end());
    permit.where = Join(where_parts, " and ");

    auto [it, fresh] = seen.insert(permit.ToString());
    if (fresh) {
      rendered.Add(*it);
      permits.push_back(std::move(permit));
    }
  }
  if (!permits.empty()) {
    decision->rendered_permits =
        std::make_shared<const RenderedPermits>(std::move(rendered));
  }
}

Result<std::shared_ptr<const Decision>> Authorizer::DecisionFor(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, ExecContext* ctx,
    AuthzCacheTxn* txn) const {
  const bool use_cache = cache_ != nullptr && options.enable_authz_cache;
  DecisionKeys keys;
  Operands operands;
  if (use_cache) {
    VIEWAUTH_ASSIGN_OR_RETURN(keys, KeysFor(user, query, options,
                                            options.extended_masks,
                                            &operands, ctx, txn));
    if (std::shared_ptr<const Decision> hit =
            txn->LookupDecision(keys.by_class, keys.exact)) {
      return hit;
    }
  }

  auto decision = std::make_shared<Decision>();
  VIEWAUTH_ASSIGN_OR_RETURN(
      decision->mask,
      DeriveMaskGoverned(user, query, options, std::move(operands),
                         options.extended_masks, nullptr, nullptr, ctx, txn));
  // The delivered columns' grants decide denied and full access.
  const std::vector<int> requested =
      DeliveredColumns(query, options.extended_masks);
  const MetaRelation& mask = decision->mask;
  // A constraint set solves lazily into a mutable cache. Solve each one
  // now, so that the threads sharing this decision only ever read it.
  for (const MetaTuple& tuple : mask.tuples()) {
    tuple.constraints().IsSatisfiable();
  }

  // Denied when no mask tuple grants a requested column (an empty mask
  // is the common case; tuples with no starred cells are equivalent).
  auto grants_any = [&](const MetaTuple& tuple) {
    return std::any_of(requested.begin(), requested.end(),
                       [&](int c) { return tuple.cells()[c].projected; });
  };
  decision->denied =
      std::none_of(mask.tuples().begin(), mask.tuples().end(), grants_any);
  // Full access: a tuple with no restriction at all that projects every
  // requested column.
  auto grants_all = [&](const MetaTuple& tuple) {
    return tuple.constraints().atom_count() == 0 &&
           std::all_of(tuple.cells().begin(), tuple.cells().end(),
                       [](const MetaCell& cell) { return cell.is_blank(); }) &&
           std::all_of(requested.begin(), requested.end(),
                       [&](int c) { return tuple.cells()[c].projected; });
  };
  decision->full_access =
      std::any_of(mask.tuples().begin(), mask.tuples().end(), grants_all);

  if (!decision->denied && !decision->full_access) {
    // The plan switch picks step 5 as well as S: the canonical plan masks
    // interpretively and never compiles.
    if (options.use_optimized_data_plan) {
      decision->compiled =
          std::make_shared<const CompiledMask>(CompiledMask::Compile(mask));
      ++txn->stats().mask_compiles;
    }
    // A requested column is displayed by its answer name; any other
    // column a qualification names (wide mask only) keeps its qualified
    // product name.
    std::vector<std::string> display;
    for (const Attribute& column : mask.columns()) {
      display.push_back(column.name);
    }
    const std::vector<std::string> answer_names = query.OutputColumnNames();
    std::vector<bool> delivered(display.size(), false);
    for (size_t i = 0; i < requested.size(); ++i) {
      const auto c = static_cast<size_t>(requested[i]);
      display[c] = answer_names[i];
      delivered[c] = true;
    }
    Describe(mask, display, delivered, decision.get());
  }
  std::shared_ptr<const Decision> out = std::move(decision);
  if (use_cache) {
    // No rewriting on a hit: only a mask that names no free constant of
    // the query serves its whole class.
    const bool by_class = keys.constant_class.has_value() &&
                          keys.constant_class->Admits(out->mask);
    txn->Store(by_class ? std::move(keys.by_class) : std::move(keys.exact),
               out, QueryScope(user, query));
  }
  return out;
}

Result<AuthorizationResult> Authorizer::Retrieve(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, ExecContext* ctx) const {
  const auto start = SteadyClock::now();
  std::optional<ExecContext> local;
  if (ctx == nullptr) {
    const ExecLimits limits = ExecLimitsOf(options);
    if (limits.any()) {
      local.emplace(limits);
      ctx = &*local;
    }
  }
  AuthzCacheTxn txn(cache_, *catalog_, db_->ddl_version());
  Result<AuthorizationResult> result =
      RetrieveGoverned(user, query, options, ctx, &txn);
  // Belt and braces: a tripped context must never deliver an answer,
  // even if every stage individually missed the trip.
  if (result.ok() && ctx != nullptr && !ctx->ok()) result = ctx->status();
  if (cache_ != nullptr && ctx != nullptr) {
    // The governor's own books survive the abort (they record it);
    // everything else rides the txn and commits on success only, so an
    // aborted retrieve leaves cache contents and counters exactly as if
    // it had never run.
    cache_->AddGovernorChecks(ctx->checks());
  }
  if (result.ok()) {
    AuthzStats& stats = txn.stats();
    ++stats.retrieves;
    stats.batches_evaluated += result->data_stats.batches_evaluated;
    stats.mask_batch_applies += result->data_stats.mask_batch_applies;
    stats.total_micros += MicrosSince(start);
    txn.Commit();
  } else if (cache_ != nullptr) {
    cache_->CountGovernedAbort(result.status().code());
  }
  return result;
}

Result<AuthorizationResult> Authorizer::RetrieveGoverned(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, ExecContext* ctx,
    AuthzCacheTxn* txn) const {
  AuthzStats& stats = txn->stats();
  AuthorizationResult result;
  auto start = SteadyClock::now();
  VIEWAUTH_ASSIGN_OR_RETURN(result.decision,
                            DecisionFor(user, query, options, ctx, txn));
  stats.mask_derivation_micros += MicrosSince(start);
  const Decision& decision = *result.decision;
  result.denied = decision.denied;
  result.full_access = decision.full_access;

  // S. Under extended masks step 5 masks the rows of the all-columns
  // query, so that a restriction on a non-requested attribute is tested
  // per row, and A is those rows over the targets; otherwise step 5
  // masks A itself.
  VIEWAUTH_ASSIGN_OR_RETURN(RelationSchema answer_schema,
                            query.OutputSchema("ANSWER"));
  std::optional<ConjunctiveQuery> wide;
  if (options.extended_masks) wide = query.WithAllColumnsProjected();
  const ConjunctiveQuery& masked = wide.has_value() ? *wide : query;
  const bool vectorized = options.use_optimized_data_plan;
  start = SteadyClock::now();
  RowIdAnswer ids;       // A on the vectorized plan
  RowIdAnswer wide_ids;  // its all-columns rows under extended masks
  Relation rows;         // A on the canonical plan
  Relation wide_rows;    // its all-columns rows under extended masks
  if (vectorized) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        ids, EvaluateRowIds(masked, *db_, &result.data_stats, ctx));
    if (wide.has_value()) {
      // The wide rows are distinct, one per combination of atom rows; A
      // is a copy keeping the first of each projection onto the targets.
      wide_ids = ids;
      if (!query.ProjectsDistinctRows() &&
          !KeepFirstOfEachProjection(query.targets(), &ids, ctx)) {
        return ctx->status();
      }
    }
  } else {
    // The canonical oracle evaluates A and the wide rows independently.
    VIEWAUTH_ASSIGN_OR_RETURN(rows, EvaluateCanonical(query, *db_, "ANSWER",
                                                      &result.data_stats, ctx));
    if (wide.has_value()) {
      VIEWAUTH_ASSIGN_OR_RETURN(
          wide_rows,
          EvaluateCanonical(*wide, *db_, "WIDE", &result.data_stats, ctx));
    }
  }
  // Full access delivers A itself, gathered whole.
  if (vectorized && decision.full_access) {
    result.answer = GatherRowIds(ids, query.targets(), answer_schema,
                                 &result.data_stats, ctx);
  }
  stats.data_eval_micros += MicrosSince(start);
  if (ctx != nullptr && !ctx->ok()) return ctx->status();

  if (decision.denied) {
    result.answer = ColumnAnswer(answer_schema);
  } else if (decision.full_access) {
    // Delivered without accompanying permit statements.
    if (!vectorized) result.answer = ColumnAnswer(rows);
  } else {
    start = SteadyClock::now();
    const std::vector<int> target_columns =
        DeliveredColumns(query, wide.has_value());
    // A compiled mask exists exactly under the vectorized plan.
    if (vectorized) {
      result.answer = ApplyWideMaskVectorized(
          wide.has_value() ? wide_ids : ids, masked.targets(),
          *decision.compiled, target_columns, answer_schema,
          options.drop_fully_masked_rows, ctx, &result.data_stats);
    } else {
      result.answer = ColumnAnswer(ApplyWideMask(
          wide.has_value() ? wide_rows : rows, decision.mask, target_columns,
          answer_schema, options.drop_fully_masked_rows, ctx));
    }
    if (ctx != nullptr && !ctx->ok()) return ctx->status();
    stats.mask_apply_micros += MicrosSince(start);
  }
  result.raw_answer =
      vectorized ? RawAnswer(std::move(ids), query.targets(),
                             std::move(answer_schema))
                 : RawAnswer(std::move(rows));
  return result;
}

}  // namespace viewauth
