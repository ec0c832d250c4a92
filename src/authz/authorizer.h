// The authorization process (paper Section 5, architecture of Figure 2).
//
// Given a user's query Q, the Authorizer:
//   1. prunes the stored views to those the user may access AND whose
//      defining relations all appear in Q;
//   2. (optionally) extends each per-relation meta-relation with inferred
//      self-joins;
//   3. runs the canonical algebra expression S' of Q — products, then
//      selections, then projections — on the meta-relations, pruning
//      dangling references after the products, yielding the mask A';
//   4. runs S (vectorized, or the canonical oracle) on the data, yielding
//      the answer A;
//   5. applies the mask to the answer: a cell is delivered when some mask
//      tuple projects its column and the row satisfies that tuple's
//      selection; everything else is withheld (NULL). The vectorized plan
//      applies a compiled mask batch-at-a-time; the canonical plan tests
//      each row interpretively (RowSatisfies), so it shares no mask code
//      with the production path;
//   6. renders the mask as inferred `permit` statements describing
//      exactly the delivered portion.
// Steps 1-3 and 6 depend only on the grants, so their outcome — the
// mask, its compiled form, the permits and the denied / full-access
// verdict — is one cached Decision (authz/authz_cache.h). It is keyed by
// the query's canonical signature, or, when the query's constants have
// an order class among the user's view constants and the mask names
// none of them, by that class (authz/constant_class.h): every query of
// the class is then served the one derivation.

#ifndef VIEWAUTH_AUTHZ_AUTHORIZER_H_
#define VIEWAUTH_AUTHZ_AUTHORIZER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/evaluator.h"
#include "algebra/vectorized.h"
#include "authz/authz_cache.h"
#include "authz/constant_class.h"
#include "calculus/conjunctive_query.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "meta/meta_tuple.h"
#include "meta/ops.h"
#include "meta/view_store.h"
#include "storage/column_answer.h"
#include "storage/relation.h"

namespace viewauth {

struct AuthorizationOptions {
  // Section 4.2 refinements; all on by default, individually switchable
  // for the ablation experiments.
  bool padding = true;
  bool four_case = true;
  bool self_joins = true;
  bool subsumption = true;
  // Dangling-reference pruning after products (required for soundness;
  // exposed only so the EXP-EX2 experiment can show what it removes).
  bool prune_dangling = true;
  // Rows with every cell withheld are dropped from the delivered answer.
  bool drop_fully_masked_rows = true;
  // The plan switch, for S and step 5 together. True (production): the
  // vectorized columnar plan (algebra/vectorized.h, the paper's
  // "different strategy" for actual relations) with compiled masks
  // applied batch-at-a-time. False (the oracle): the paper's canonical
  // products-selections-projections plan with interpretive mask
  // application, which never compiles a mask. Same answers either way —
  // the differential tier asserts it.
  bool use_optimized_data_plan = true;
  // The paper's conclusion (3), implemented: when true, masks may be
  // "expressed with additional attributes" — a mask tuple whose
  // restriction sits on a non-requested column is kept, the answer is
  // masked before the final projection (so the restriction can be tested
  // per row), and the inferred permit statement names the extra
  // attribute. Off by default: the paper's base algorithm yields only
  // masks expressible with the requested attributes.
  bool extended_masks = false;
  // Master switch for the authorization cache (authz/authz_cache.h):
  // per-query decisions, and the pruned-and-self-joined per-relation
  // meta-relations (the paper: self-joins "should be stored with the
  // original view definitions, until these definitions are modified").
  // Effective only when the Authorizer was constructed with a cache.
  bool enable_authz_cache = true;
  // Run the static catalog analyzer (src/analysis) after every permit and
  // deny and append any finding anchored to the touched grant to the
  // statement's output — e.g. a permit that is subsumed the moment it is
  // issued, or a deny whose effect a group grant still re-grants. Off by
  // default; the REPL exposes it as `set analyze on`.
  bool analyze_grants = false;
  // Run the disclosure auditor (src/analysis/disclosure_auditor.h) after
  // every retrieve-mode permit and deny and append its findings for the
  // touched grant: on permit, the marginal disclosure the grant adds and
  // any inference channel it opens; on deny, whether the surviving
  // permits' closure makes the deny vacuous at the moment it is entered.
  // Off by default (closure computation is analyzer-grade, not
  // per-statement-grade); the REPL exposes it as `set audit on`.
  bool audit_grants = false;

  // --- execution governance (0 = unlimited throughout) ------------------
  // Per-statement wall-clock deadline. Both the S data plan and the S'
  // meta plan run under one ExecContext, so the deadline bounds the
  // whole retrieve, not one side of the commutative diagram.
  long long deadline_ms = 0;
  // Budget on rows processed (scanned + produced, data and meta alike).
  long long max_rows = 0;
  // Budget on approximate bytes materialized (ApproxTupleBytes-based).
  long long max_bytes = 0;
  // Admission control (enforced by the engine, not the authorizer):
  // at most this many retrieves run concurrently; excess waits.
  int max_concurrent = 0;
  // How many retrieves may wait for an admission slot before newcomers
  // are shed immediately with Unavailable.
  int admission_queue = 4;
  // How long a queued retrieve waits for a slot before giving up.
  long long admission_timeout_ms = 100;
};

// The governance limits of `options` as ExecContext input.
inline ExecLimits ExecLimitsOf(const AuthorizationOptions& options) {
  return ExecLimits{options.deadline_ms, options.max_rows,
                    options.max_bytes};
}

// A trace of the mask-derivation pipeline, for EXPLAIN-style output and
// diagnostics. Counters are tuple counts at each stage.
struct MaskTrace {
  struct OperandStage {
    std::string relation;
    int view_tuples = 0;       // stored tuples of usable views
    int with_self_joins = 0;   // after self-join inference
  };
  std::vector<OperandStage> operands;
  int after_products = 0;        // combined tuples before pruning
  int after_dangling_prune = 0;  // after hopeless/dangling pruning + dedup
  struct SelectionStage {
    std::string predicate;
    int before = 0;
    int after = 0;
  };
  std::vector<SelectionStage> selections;
  int after_projection = 0;
  int final_mask = 0;

  // Multi-line human-readable report.
  std::string ToString() const;
};

// The unmasked answer A. The vectorized plan keeps S's row ids and
// builds the rows only on Materialize(); the canonical plan, the oracle,
// owns the rows. Row ids point into the database S ran against, so a
// handle must not outlive it: the engine drops it before releasing its
// snapshot.
class RawAnswer {
 public:
  RawAnswer() = default;
  explicit RawAnswer(Relation rows) : rows_(std::move(rows)) {}
  // `schema` names the columns of `targets`, the answer's projection.
  RawAnswer(RowIdAnswer ids, std::vector<ColumnRef> targets,
            RelationSchema schema)
      : rows_(std::move(schema)),
        ids_(std::move(ids)),
        targets_(std::move(targets)) {}

  int size() const {
    return ids_.has_value() ? static_cast<int>(ids_->size()) : rows_.size();
  }
  // Cell `c` of row `r`, without building the row.
  const Value& cell(size_t r, size_t c) const {
    return ids_.has_value()
               ? ids_->cell(r, targets_[c])
               : rows_.row(static_cast<RowId>(r)).at(static_cast<int>(c));
  }
  // The rows, in S's order.
  Relation Materialize() const;

 private:
  Relation rows_;  // the rows, or only their schema when ids_ is set
  std::optional<RowIdAnswer> ids_;
  std::vector<ColumnRef> targets_;
};

struct AuthorizationResult {
  // The delivered rows, column by column: requested structure, withheld
  // cells NULL.
  ColumnAnswer answer;
  // The unmasked answer (audit counts, diagnostics and experiments only;
  // never shown to the requesting user by the engine front-end).
  RawAnswer raw_answer;
  // The decision the answer was masked by, shared with the cache. Set by
  // every successful Retrieve.
  std::shared_ptr<const Decision> decision;
  // Copies of decision->full_access and decision->denied.
  bool full_access = false;
  bool denied = false;
  EvalStats data_stats;

  // The mask A' (the wide mask under extended_masks).
  const MetaRelation& mask() const { return decision->mask; }
  // The inferred permit statements; empty unless access is partial.
  const std::vector<InferredPermit>& permits() const {
    return decision->permits;
  }
};

class Authorizer {
 public:
  // `cache` may be null (no caching, no stats — the bare pipeline).
  // When provided, it holds prepared meta-relations, per-query decisions
  // and the observability counters. Every store carries the entry's read
  // set (user, base relations) so the cache can invalidate selectively.
  // Each public entry point opens one AuthzCacheTxn against `catalog`
  // and `db`'s DDL version, which is the cache's one sync point: catalog
  // and schema changes, whoever made them, are caught up there. The
  // authorizer only reads `catalog`.
  Authorizer(const DatabaseInstance* db, const ViewCatalog* catalog,
             AuthzCache* cache = nullptr)
      : db_(db), catalog_(catalog), cache_(cache) {}

  // Full pipeline for a user's retrieve, run on the calling thread. A
  // non-null `ctx` governs both sides (S and S') of the run; when `ctx`
  // is null and the options carry limits, a context is constructed
  // locally. On a governed abort — or any other failure — the
  // authorization cache and its counters are left exactly as if the
  // retrieve had never run (writes are staged in an AuthzCacheTxn and
  // only committed on success); the governor's own abort counters are
  // the sole trace.
  Result<AuthorizationResult> Retrieve(std::string_view user,
                                       const ConjunctiveQuery& query,
                                       const AuthorizationOptions& options = {},
                                       ExecContext* ctx = nullptr) const;

  // Steps exposed for tests, experiments and benchmarks ----------------

  // The pruned per-atom meta-relations (step 1-2). `atom` indexes
  // query.atoms().
  Result<MetaRelation> PrunedMetaRelation(
      std::string_view user, const ConjunctiveQuery& query, int atom,
      const AuthorizationOptions& options = {}) const;

  // Runs S' end to end (steps 1-3), yielding the mask over the answer
  // columns. Without a product stage or trace it consults the decision
  // cache under the query's class and exact keys, counting a hit or a
  // miss, and returns the cached mask on a hit; a miss derives the mask
  // but stores no decision (only Retrieve builds decisions; the
  // constant profile behind the class key is kept).
  Result<MetaRelation> DeriveMask(std::string_view user,
                                  const ConjunctiveQuery& query,
                                  const AuthorizationOptions& options = {},
                                  // When non-null, receives the product
                                  // result after pruning (Example 2's
                                  // intermediate table).
                                  MetaRelation* product_stage = nullptr,
                                  MaskTrace* trace = nullptr) const;

  // Runs the mask pipeline with tracing, returning the stage-by-stage
  // report (the mask itself is recomputed cheaply by callers who need
  // it).
  Result<MaskTrace> Explain(std::string_view user,
                            const ConjunctiveQuery& query,
                            const AuthorizationOptions& options = {}) const;

  // Step 5, interpretively (the canonical plan's oracle): masks `answer`
  // (whose columns correspond to the mask's) row by row, testing every
  // mask tuple with RowSatisfies. A non-null `ctx` ticks per answer row
  // and stops masking once tripped; callers must check ctx->status()
  // before delivering the (then partial) result.
  static Relation ApplyMask(const Relation& answer, const MetaRelation& mask,
                            bool drop_fully_masked_rows,
                            ExecContext* ctx = nullptr);

  // Extended-mask variant of step 5: `wide_answer` holds the
  // pre-projection rows (all product columns); each wide-mask tuple's
  // selection is tested against the full row, and the delivered rows are
  // the projections onto `target_columns` with non-projected cells
  // withheld. `answer_schema` names the delivered columns.
  static Relation ApplyWideMask(const Relation& wide_answer,
                                const MetaRelation& wide_mask,
                                const std::vector<int>& target_columns,
                                const RelationSchema& answer_schema,
                                bool drop_fully_masked_rows,
                                ExecContext* ctx = nullptr);

  // Vectorized step 5 (options.use_optimized_data_plan), the one
  // kernel: S's row-id rows are walked in column batches that gather
  // mask column c as cell `columns[c]` of each row, each relevant mask
  // tuple of the compiled mask runs its FilterBatch kernel over a
  // selection vector, and only authorized (row, tuple) deliveries write
  // cells, each into its column's image. The rows must be distinct over
  // `columns` (EvaluateRowIds' are, over the query's targets, and so are
  // AllRowsOf(relation)'s over every column). Row-for-row identical
  // output to ApplyWideMask on the materialized rows. A non-null `stats`
  // counts mask_batch_applies; a non-null `ctx` ticks per batch and
  // stops masking once tripped, as for ApplyMask.
  static ColumnAnswer ApplyWideMaskVectorized(
      const RowIdAnswer& rows, const std::vector<ColumnRef>& columns,
      const CompiledMask& wide_mask, const std::vector<int>& target_columns,
      const RelationSchema& answer_schema, bool drop_fully_masked_rows,
      ExecContext* ctx = nullptr, EvalStats* stats = nullptr);
  // The kernel over a materialized relation, viewed as a one-atom
  // row-id answer (AllRowsOf) with every column delivered, as ApplyMask
  // is ApplyWideMask; the delivered rows are materialized.
  static Relation ApplyMaskVectorized(const Relation& answer,
                                      const CompiledMask& mask,
                                      bool drop_fully_masked_rows,
                                      ExecContext* ctx = nullptr,
                                      EvalStats* stats = nullptr);

  // True when `row` satisfies the selection predicate of `tuple`.
  static bool RowSatisfies(const MetaTuple& tuple, const Tuple& row);

  // Step 6: renders mask tuples as permit statements over the mask's
  // column names.
  std::vector<InferredPermit> DescribeMask(const MetaRelation& mask) const;

 private:
  // The body of Retrieve. `ctx` may be null; `txn` never is — all cache
  // traffic and counter deltas stage through it.
  Result<AuthorizationResult> RetrieveGoverned(
      std::string_view user, const ConjunctiveQuery& query,
      const AuthorizationOptions& options, ExecContext* ctx,
      AuthzCacheTxn* txn) const;
  // The prepared meta-relation of each relation of a query, by name.
  using Operands = std::map<std::string, std::shared_ptr<const MetaRelation>>;

  // The keys a decision for (user, query, options, wide) may be cached
  // under.
  struct DecisionKeys {
    std::string exact;     // "D|...": the canonical signature
    std::string by_class;  // "K|...": empty when the query has no class
    std::optional<ConstantClass> constant_class;
  };

  // The decision keys of a query. A query with constants needs the
  // user's constant profile for its relation set; on a profile miss it
  // is built from the prepared meta-relations, which are left in
  // `operands` for the derivation that is likely to follow.
  Result<DecisionKeys> KeysFor(std::string_view user,
                               const ConjunctiveQuery& query,
                               const AuthorizationOptions& options, bool wide,
                               Operands* operands, ExecContext* ctx,
                               AuthzCacheTxn* txn) const;

  // The decision for (user, query, options): one cache lookup (class key,
  // then exact key), and on a miss the whole build — derive, decide,
  // compile, describe — staged in `txn` with its read set, under the
  // class key when the mask names no free constant of the query.
  Result<std::shared_ptr<const Decision>> DecisionFor(
      std::string_view user, const ConjunctiveQuery& query,
      const AuthorizationOptions& options, ExecContext* ctx,
      AuthzCacheTxn* txn) const;

  // Governed bodies of the public pipeline steps: the public methods are
  // thin wrappers that build a local context (when the options carry
  // limits) and a txn, and commit the txn on success.
  Result<std::shared_ptr<const MetaRelation>> PrunedMetaRelationGoverned(
      std::string_view user, const ConjunctiveQuery& query, int atom,
      const AuthorizationOptions& options, ExecContext* ctx,
      AuthzCacheTxn* txn) const;
  // Steps 1-2 for every relation of `query` (through the prepared
  // cache), recording the operand stages in `trace` when non-null.
  Result<Operands> PreparedOperands(std::string_view user,
                                    const ConjunctiveQuery& query,
                                    const AuthorizationOptions& options,
                                    MaskTrace* trace, ExecContext* ctx,
                                    AuthzCacheTxn* txn) const;
  // S' without any decision lookup, over `operands` (fetched here when
  // empty): the products with their pruning,
  // the selections with the four-case post-pass, then the final mask,
  // projected onto the requested columns and named like the answer; or,
  // when `wide`, the extended mask, which keeps every product column
  // under its qualified name so a restriction on a non-requested
  // attribute stays testable per row. Either way, duplicates and (under
  // options.subsumption) subsumed tuples are removed.
  Result<MetaRelation> DeriveMaskGoverned(
      std::string_view user, const ConjunctiveQuery& query,
      const AuthorizationOptions& options, Operands operands, bool wide,
      MetaRelation* product_stage, MaskTrace* trace, ExecContext* ctx,
      AuthzCacheTxn* txn) const;

  // Step 6, the one permit renderer: one statement per mask tuple that
  // projects a `requested` column, listing those columns and qualifying
  // them by the tuple's selection; `display` names every mask column.
  // Fills `decision`'s permits and their rendering, each statement
  // rendered once.
  void Describe(const MetaRelation& mask,
                const std::vector<std::string>& display,
                const std::vector<bool>& requested, Decision* decision) const;

  const DatabaseInstance* db_;
  const ViewCatalog* catalog_;
  AuthzCache* cache_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_AUTHORIZER_H_
