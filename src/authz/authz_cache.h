// The mask-pipeline cache (paper Section 4.2: self-joins "need not be
// generated for every query; once generated, they should be stored with
// the original view definitions, until these definitions are modified").
//
// One map of immutable, shared entries of four kinds, all
// dependency-tracked:
//   * decisions — the end product of the paper's Section 5 pipeline for
//     one query: the mask A', its compiled form, the inferred permit
//     statements and the denied / full-access verdict. A decision is
//     keyed by (user, mask-affecting options, plan) and either the
//     query's canonical signature ("D|", the exact key) or the order
//     class of its constants ("K|", the class key; see
//     authz/constant_class.h): a query whose constants sit in the same
//     places among the user's view constants as an earlier one's, and
//     whose mask names none of its own constants, is served that
//     earlier derivation;
//   * prepared authorizations ("P|") — the pruned, self-join-extended
//     per-relation meta-relations of Authorizer steps 1-2, keyed by
//     (user, target relation, set of relations in Q, self-join rounds);
//   * constant profiles ("C|") — the components and view constants of
//     one user's prepared meta-relations over one relation set, which a
//     class key is computed from.
// Every key starts with its kind tag, so a relation named like a flavor
// letter can never make two kinds collide.
//
// Soundness argument (selective invalidation). Every entry records its
// read set as an AuthzDependencies: the user it was derived for and the
// base relations of the query. The ViewCatalog keeps a journal of its
// mutations (CatalogMutation in meta/view_store.h), each record naming
// the users whose entitlements it may change and the relation-set scopes
// it touches. The cache syncs in exactly one place: when a retrieve
// opens its AuthzCacheTxn against its snapshot's catalog and DDL
// version. The sync replays the journal from the cache's synced
// sequence number and drops exactly the entries whose (user, relations)
// dependencies a record selects — a mask embeds a granted view only when
// the query covers all of the view's relations, so "some recorded scope
// is a subset of the entry's relations" is precisely "this entry's
// closure touches the mutated view". Class-keyed decisions and
// profiles carry the same read set as the prepared meta-relations they
// come from, so a grant drops a class entry exactly when it would drop
// an exact one. Consequences:
//   * `insert`/`delete`/`modify` data statements never invalidate —
//     masks are derived from view definitions and grants, never data;
//   * `permit V to U` / `deny V to U` invalidates only U's (and, for a
//     group grant, the members') entries whose relation set covers V;
//   * `drop view V` invalidates V's holders' entries over V's relation
//     scopes; a fresh definition has no holders and drops nothing;
//   * relation create/drop (DDL) wipes everything once, at the first
//     sync that sees the new DDL version, counted as an over-approximate
//     invalidation;
//   * a cache that has fallen behind the bounded journal wipes itself
//     rather than guess.
// Nothing else invalidates: the engine never touches the cache when it
// mutates, so the cache only ever sees catalogs some retrieve has read —
// under the DurableEngine, published (fsynced) ones — and a discarded
// batch's sequence numbers can never be reused underneath it. The entry
// bound evicts, but an evicted entry is only ever re-derived, never
// served stale.
//
// The cache is internally synchronized; concurrent sessions may look up,
// fill and sync freely. Entries are handed out as shared pointers to
// const values, so a reader never copies one and never sees one change.
//
// AuthzCacheTxn stages a single retrieve's cache traffic so an aborted
// retrieve (deadline, budget, cancellation — any failure, in fact) leaves
// the cache and its counters exactly as if the query had never run, bar
// the catch-up sync any retrieve at its snapshot runs: reads have no side
// effect on the cache, writes and counter deltas are buffered, and
// Commit() publishes everything atomically on success only.

#ifndef VIEWAUTH_AUTHZ_AUTHZ_CACHE_H_
#define VIEWAUTH_AUTHZ_AUTHZ_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "authz/compiled_mask.h"
#include "common/status.h"
#include "meta/meta_tuple.h"

namespace viewauth {

class ConstantProfile;
class ViewCatalog;
struct CatalogMutation;

// The kind tags every cache key starts with.
inline constexpr std::string_view kExactDecisionTag = "D|";
inline constexpr std::string_view kClassDecisionTag = "K|";
inline constexpr std::string_view kPreparedTag = "P|";
inline constexpr std::string_view kProfileTag = "C|";

// The invalidation clock: `catalog` is a ViewCatalog's journal sequence
// number, `schema` a DatabaseInstance's DDL version. A txn reads both
// from its retrieve's snapshot. Lookups require an exact schema match
// plus entry.catalog <= reader.catalog — under engine snapshot isolation
// a retrieve may run against a catalog older than the cache's synced
// point, and entries stored after its snapshot must look like misses to
// it (entries stored before remain sound for it precisely because they
// survived the journal replay in between). Store rejects an entry
// derived at any generation other than the synced one.
struct AuthzGeneration {
  long long catalog = 0;
  long long schema = 0;

  bool operator==(const AuthzGeneration&) const = default;
};

// The read set of one cached entry: who it was derived for and the base
// relations of the query — what selective invalidation matches
// CatalogMutation records against.
struct AuthzDependencies {
  std::string user;
  std::set<std::string> relations;
};

// One inferred permit statement, structured and rendered.
struct InferredPermit {
  std::vector<std::string> columns;
  std::string where;  // empty when unconditional

  // "permit (NUMBER, SPONSOR) where SPONSOR = Acme".
  std::string ToString() const;
};

// A decision's permit statements, rendered once when the decision is
// built: the reply's tail, and the audit trail's PERMITS text, which is
// the same statements joined by "; ". The decision and every audit entry
// of a partial delivery share one instance.
class RenderedPermits {
 public:
  // Appends one statement, as InferredPermit::ToString renders it.
  void Add(std::string_view permit);

  // "permit …\n" per statement, in order.
  const std::string& lines() const { return lines_; }
  size_t size() const { return ends_.size(); }
  // The i-th statement, without its newline.
  std::string_view permit(size_t i) const;
  // The statements joined by `separator`.
  std::string Join(std::string_view separator) const;

 private:
  std::string lines_;
  // Where each statement's newline sits. A string constant may hold a
  // newline itself, so the lines cannot be split on '\n'.
  std::vector<size_t> ends_;
};

// The authorization decision for one (user, query): everything about a
// retrieve that depends on the grants and not on the data. Immutable once
// built; the cache and every result that used it share one instance.
struct Decision {
  // A', the final mask over the answer columns — or, under
  // extended_masks, the wide mask over every product column.
  MetaRelation mask;
  // The compiled form of `mask`; set only for the vectorized plan with
  // partial access (the canonical plan masks interpretively).
  std::shared_ptr<const CompiledMask> compiled;
  // The permit statements describing the delivered portion; empty when
  // denied or full access.
  std::vector<InferredPermit> permits;
  // `permits`, rendered; null exactly when `permits` is empty.
  std::shared_ptr<const RenderedPermits> rendered_permits;
  // Nothing may be delivered: no mask tuple grants a requested column.
  bool denied = false;
  // The mask grants the entire answer (no permit statements accompany
  // the delivery, as in the paper's Example 3).
  bool full_access = false;
};

// Observability counters for the authorization pipeline; all time
// figures are accumulated wall-clock microseconds. The admission block
// is filled in by the engine's AdmissionController, not by the cache.
struct AuthzStats {
  long long retrieves = 0;  // full Retrieve calls
  long long prepared_hits = 0;
  long long prepared_misses = 0;
  long long mask_hits = 0;           // decision lookups served
  long long class_hits = 0;          // ... of them, under a class key
  long long mask_misses = 0;         // decision lookups that derived
  long long mask_compiles = 0;       // CompiledMask builds
  // Hopeless + dangling tuples removed; hopeless ones are counted in the
  // raw product, duplicates included.
  long long meta_tuples_pruned = 0;

  // --- vectorized plan --------------------------------------------------
  // Column batches processed by the vectorized data plan, and compiled-
  // mask batch kernels applied by the fused mask path.
  long long batches_evaluated = 0;
  long long mask_batch_applies = 0;

  // --- invalidation precision -------------------------------------------
  // How selective the dependency-tracked scheme is in practice. Booked by
  // the sync a retrieve's txn runs, i.e. at the first retrieve after the
  // mutation.
  long long entries_invalidated = 0;  // dropped by catalog/DDL events
  long long entries_retained = 0;     // survivors of targeted events
  long long invalidations_exact = 0;  // dependency-matched drop events
  long long invalidations_over = 0;   // full wipes (DDL, journal loss)
  // Entries dropped by the entry bound (not invalidations: nothing they
  // held was stale).
  long long entries_evicted = 0;
  long long mask_derivation_micros = 0;  // S' (decision) wall time
  long long data_eval_micros = 0;        // S (data-plan) wall time
  long long mask_apply_micros = 0;       // step-5 masking wall time
  long long total_micros = 0;            // whole-retrieve wall time

  // --- execution governor -----------------------------------------------
  long long deadline_exceeded = 0;  // retrieves aborted by deadline
  long long budget_exceeded = 0;    // retrieves aborted by row/byte budget
  long long cancelled = 0;          // retrieves aborted by cancellation
  long long governor_checks = 0;    // amortized wall-clock probes taken

  // --- admission control (engine-side) ----------------------------------
  long long admission_attempts = 0;
  long long admitted = 0;
  long long queued = 0;          // admissions that had to wait for a slot
  long long shed = 0;            // rejected immediately (queue full)
  long long queue_timeouts = 0;  // waited, then gave up

  // Field-by-field sum (folds a committed txn's delta into the totals).
  AuthzStats& operator+=(const AuthzStats& other);

  // Multi-line human-readable report (the REPL's \stats output).
  std::string ToString() const;
};

class AuthzCache {
 public:
  // What an entry holds: a decision ("D|" and "K|" keys), a prepared
  // meta-relation ("P|" keys) or a constant profile ("C|" keys).
  using Value = std::variant<std::shared_ptr<const Decision>,
                             std::shared_ptr<const MetaRelation>,
                             std::shared_ptr<const ConstantProfile>>;

  AuthzCache() = default;
  AuthzCache(const AuthzCache&) = delete;
  AuthzCache& operator=(const AuthzCache&) = delete;

  // --- Governor bookkeeping (the governor's own books) ------------------
  // Deliberately NOT routed through AuthzCacheTxn: these counters record
  // the abort itself, so they must survive it. Counts only the three
  // governed-abort codes; anything else is ignored.
  void CountGovernedAbort(StatusCode code);
  void AddGovernorChecks(long long checks);

  AuthzStats Snapshot() const;
  void ResetStats();

 private:
  friend class AuthzCacheTxn;

  struct Entry {
    AuthzGeneration gen;
    AuthzDependencies deps;
    Value value;
  };

  // The one sync point, run by AuthzCacheTxn's constructor: catches the
  // cache up to a reader at (catalog, ddl_version) and returns the
  // reader's generation. A newer DDL version wipes everything once (a
  // schema change can alter coverage decisions for any user, so no
  // per-entry dependency test applies); a newer catalog replays its
  // journal from the synced sequence number, dropping exactly the
  // entries each record's (users, scopes) dependency test selects, or
  // wipes when the bounded journal no longer reaches back that far.
  // Wipes count as over-approximate invalidations. A reader older than
  // the synced point moves nothing: it only misses newer entries, and
  // its stores are rejected.
  AuthzGeneration Sync(const ViewCatalog& catalog, long long ddl_version);
  // Side-effect-free read: the value under `key` when a reader at `gen`
  // may use it.
  std::optional<Value> Find(const std::string& key,
                            const AuthzGeneration& gen) const;
  // Admits one entry and records its read set in the dependency index; a
  // store derived at any generation other than the synced one is
  // rejected (the cache has moved past it, or it never got there).
  // Requires mutex_ held.
  void StoreLocked(std::string key, const AuthzGeneration& gen, Value value,
                   AuthzDependencies deps);
  // The entry bound, crossed: drops exact-keyed decisions, then
  // class-keyed ones while still over the bound, and everything only when
  // prepared meta-relations and profiles alone are over it. Books what
  // it dropped as entries_evicted. Requires mutex_ held.
  void EvictLocked();
  // Drops every entry whose key starts with `tag`; returns how many.
  // Requires mutex_ held.
  long long EraseKindLocked(std::string_view tag);
  // Removes one user's index reference to `key`. Requires mutex_ held.
  void IndexEraseLocked(const std::string& key, const std::string& user);
  // Drops every entry; returns how many there were. Requires mutex_ held.
  long long ClearLocked();
  // ClearLocked, booked as one over-approximate invalidation when it
  // dropped anything. Requires mutex_ held.
  void WipeLocked();
  // One journal record: drops the dependent entries of each affected
  // user, counts exact/retained precision figures.
  void ApplyCatalogMutationLocked(const CatalogMutation& record);
  // Debug-build invariant: the index and the map describe each other
  // exactly (every entry indexed under its user, every indexed key
  // present). No-op in release builds.
  void CheckIndexLocked() const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  // Reverse dependency index: user -> the keys of that user's entries.
  // Targeted invalidation walks only the affected users' keys.
  std::map<std::string, std::set<std::string>> by_user_;
  // The generation this cache has synced to: the catalog journal
  // sequence number it has replayed up to and the DDL version it has
  // wiped for.
  AuthzGeneration synced_;
  AuthzStats stats_;
};

// Stages one retrieve's cache traffic. Opening a txn syncs the cache to
// the retrieve's snapshot (AuthzCache::Sync) and fixes the generation
// every lookup and store of the txn uses. Reads consult this txn's
// pending stores first (a retrieve may re-derive under the same key),
// then the live cache; writes and counter deltas stay local until
// Commit(). Dropping the txn without committing discards everything —
// the abort-cleanliness mechanism for governed (and any other)
// failures. The sync itself is catalog work, not the query's traffic:
// it stays done even when the txn is dropped. Owned by the one thread
// running the retrieve.
class AuthzCacheTxn {
 public:
  // `catalog` and `ddl_version` are the retrieve's snapshot. `cache` may
  // be null (caching disabled): lookups miss without counting, stores
  // and Commit are no-ops.
  AuthzCacheTxn(AuthzCache* cache, const ViewCatalog& catalog,
                long long ddl_version);
  AuthzCacheTxn(const AuthzCacheTxn&) = delete;
  AuthzCacheTxn& operator=(const AuthzCacheTxn&) = delete;

  // A decision lookup tries the class key (when not empty) and then the
  // exact key, and counts one mask hit (and a class hit when the class
  // key served it) or one miss. A prepared lookup counts a prepared hit
  // or miss; a profile lookup counts nothing. All return null on a miss.
  std::shared_ptr<const Decision> LookupDecision(const std::string& class_key,
                                                 const std::string& exact_key);
  std::shared_ptr<const MetaRelation> LookupPrepared(const std::string& key);
  std::shared_ptr<const ConstantProfile> LookupProfile(const std::string& key);
  void Store(std::string key, AuthzCache::Value value,
             AuthzDependencies deps);

  // The buffered counter deltas, published by Commit().
  AuthzStats& stats() { return stats_; }

  // Publishes buffered stores and counter deltas to the live cache under
  // one lock. Idempotent; a second call is a no-op.
  void Commit();

 private:
  // Pending stores carry the entry's dependency edges alongside its
  // value: an aborted retrieve must leave the live dependency index as
  // untouched as the entries themselves.
  struct Pending {
    std::string key;
    AuthzCache::Value value;
    AuthzDependencies deps;
  };

  // The value under `key`: pending stores first, then the live cache.
  std::optional<AuthzCache::Value> Find(const std::string& key) const;

  AuthzCache* cache_;
  AuthzGeneration gen_;
  std::vector<Pending> pending_;
  AuthzStats stats_;
  bool committed_ = false;
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_AUTHZ_CACHE_H_
