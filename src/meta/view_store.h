// ViewCatalog: compilation and storage of access permissions
// (paper Section 3).
//
// Each view (a conjunctive query) is compiled into meta-tuples — one per
// membership atom — using the paper's rules:
//   * equality subformulas are substituted away (variables merged,
//     constants propagated);
//   * projection variables (the a's) star every cell of their class;
//   * variables that occur only once and carry no comparative constraint
//     become blanks;
//   * comparative subformulas become COMPARISON entries, held as a
//     ConstraintSet on the view's variables.
//
// The catalog also stores the PERMISSION relation (user -> view grants)
// and can materialize the extended database of Figure 1: for each base
// relation R, the meta-relation R' as an actual Relation whose rows are
// the printable meta-tuples, plus COMPARISON and PERMISSION relations.

#ifndef VIEWAUTH_META_VIEW_STORE_H_
#define VIEWAUTH_META_VIEW_STORE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "calculus/conjunctive_query.h"
#include "common/result.h"
#include "meta/meta_tuple.h"
#include "meta/ops.h"
#include "parser/ast.h"
#include "schema/schema.h"
#include "storage/relation.h"

namespace viewauth {

// Access modes for grants. The paper's model covers retrieval; insert
// and delete implement its conclusion (1) ("we see no difficulty in
// extending it to incorporate update permissions"): an update-mode view
// is a window of rows the user may create or remove.
enum class AccessMode { kRetrieve = 0, kInsert = 1, kDelete = 2, kModify = 3 };

std::string_view AccessModeToString(AccessMode mode);

// One entry of the catalog's mutation journal, consumed by the
// authorization cache (authz/authz_cache.h) for selective invalidation.
// Each record names exactly the cached-entry population the mutation can
// affect:
//   * `users` — the users whose retrieval entitlements may have changed,
//     resolved at mutation time (the grantee plus the current members
//     when the grantee is a group);
//   * `scopes` — relation-set scopes; a cached entry is dependent iff
//     its user is in `users` AND some scope is a subset of the entry's
//     recorded relation read set (a mask only embeds a view when the
//     query covers all of the view's relations).
// An empty scope list means the mutation cannot affect any cached
// retrieval entry (e.g. an update-mode grant, or a definition of a view
// nobody holds yet).
struct CatalogMutation {
  enum class Kind {
    kViewDefined = 0,
    kViewDropped = 1,
    kGrantAdded = 2,
    kGrantRevoked = 3,
    kMemberAdded = 4,
    kMemberRemoved = 5,
  };
  long long seq = 0;
  Kind kind = Kind::kGrantAdded;
  // Grant name of the view involved; empty for membership changes.
  std::string view;
  std::vector<std::string> users;
  std::vector<std::set<std::string>> scopes;
};

// One stored COMPARISON row (kept in source form for display; the
// operational form lives in the tuples' ConstraintSets).
struct ComparisonEntry {
  std::string view;
  VarId lhs = -1;
  Comparator op = Comparator::kGe;
  bool rhs_is_var = false;
  VarId rhs_var = -1;
  Value rhs_const;
};

// A compiled view definition.
struct ViewDefinition {
  std::string name;
  ConjunctiveQuery query;
  // One meta-tuple per membership atom, aligned with query.atoms().
  std::vector<MetaTuple> tuples;
  // Relation name of each tuple (== query.atoms()[i].relation).
  std::vector<std::string> tuple_relations;
  // Distinct base relations the view is defined over (a view is never
  // defined over another view, even one named like a relation).
  std::set<std::string> relations;
  // This view's variables, in display order.
  std::vector<VarId> vars;
  // Source-form comparative subformulas.
  std::vector<ComparisonEntry> comparisons;
};

class ViewCatalog {
 public:
  // Non-owning binding: the caller guarantees `schema` outlives the
  // catalog (the standalone-test idiom `ViewCatalog catalog(&db.schema())`).
  // The engine uses the owning overload so catalog snapshots keep their
  // schema alive on their own.
  explicit ViewCatalog(const DatabaseSchema* schema)
      : schema_(schema, [](const DatabaseSchema*) {}) {}
  explicit ViewCatalog(std::shared_ptr<const DatabaseSchema> schema)
      : schema_(std::move(schema)) {}

  ViewCatalog& operator=(const ViewCatalog&) = delete;

  // A deep copy bound to `schema` — how the engine forks the catalog for
  // a copy-on-write snapshot before a catalog mutation. The synthetic
  // variable allocator is intentionally *shared* between the clone and
  // the original: cached masks embed synthetic VarIds, and those ids
  // must stay unique across every catalog version the cache has ever
  // seen (the allocator is atomic, so sharing is thread-safe).
  std::shared_ptr<ViewCatalog> Clone(
      std::shared_ptr<const DatabaseSchema> schema) const {
    auto copy = std::shared_ptr<ViewCatalog>(new ViewCatalog(*this));
    copy->schema_ = std::move(schema);
    return copy;
  }

  // Points an unshared catalog at a (possibly re-created) schema object
  // after DDL cloned it. Definitions are unaffected — the schema's
  // content for already-compiled views is identical.
  void RebindSchema(std::shared_ptr<const DatabaseSchema> schema) {
    schema_ = std::move(schema);
  }

  // Compiles and registers a view. Fails on name clashes, schema errors,
  // or views that provably define the empty relation. A view statement
  // with `or` branches (paper conclusion (2)) compiles every branch as a
  // separate conjunctive definition under the same grant name; granting
  // the view grants all branches. Note the semantics: the user is
  // entitled to each branch as a view of its own (the same entitlement
  // as granting the branches individually), which is strictly more than
  // an opaque union.
  Status DefineView(const ViewStmt& stmt);
  Status DefineView(std::string name, const ConjunctiveQuery& query);
  Status DropView(std::string_view name);

  // PERMISSION maintenance. Permitting requires the view to exist;
  // denying removes an existing grant.
  Status Permit(std::string_view view, std::string_view user,
                AccessMode mode = AccessMode::kRetrieve);
  Status Deny(std::string_view view, std::string_view user,
              AccessMode mode = AccessMode::kRetrieve);

  bool HasView(std::string_view name) const;
  // For disjunctive views, returns the first branch; use GetViewBranches
  // for all of them.
  Result<const ViewDefinition*> GetView(std::string_view name) const;
  Result<std::vector<const ViewDefinition*>> GetViewBranches(
      std::string_view name) const;
  const std::vector<std::string>& view_names() const { return view_order_; }

  // The views granted to `user` for `mode`, in grant order.
  std::vector<const ViewDefinition*> PermittedViews(
      std::string_view user, AccessMode mode = AccessMode::kRetrieve) const;
  bool IsPermitted(std::string_view user, std::string_view view,
                   AccessMode mode = AccessMode::kRetrieve) const;

  // Every user any grant can apply to — direct grantees plus the current
  // members of granted groups — in first-appearance order. The analyzer
  // and the disclosure auditor iterate this so their per-user passes use
  // exactly the membership resolution PermittedViews enforces.
  std::vector<std::string> PrincipalUsers() const;

  // Display name of a variable ("x1", "x2", ... in catalog allocation
  // order; synthetic mid-pipeline variables render as "w<k>").
  std::string VarName(VarId var) const;

  VarAllocator* synthetic_allocator() const { return synthetic_alloc_.get(); }

  // Which view and relation each membership atom (by global AtomId)
  // belongs to. Used for early pruning of meta-products: a combined tuple
  // missing more atoms of view V over relation X than there are X
  // operands remaining is hopeless (one operand tuple carries at most one
  // atom of any given view, since self-joins never pair a view with
  // itself).
  const std::map<AtomId, AtomInfo>& atom_info() const { return atom_info_; }

  // --- Figure 1 materialization -------------------------------------
  // The meta-relation R' of `relation_name` as a printable Relation with
  // scheme (VIEW, <attrs...>), all string-typed; cells use the paper's
  // notation (blank, "x1*", "Acme*", "*").
  Result<Relation> MaterializeMetaRelation(
      std::string_view relation_name) const;
  // COMPARISON = (VIEW, X, COMPARE, Y).
  Relation MaterializeComparison() const;
  // PERMISSION = (USER, VIEW).
  Relation MaterializePermission() const;

  const DatabaseSchema& schema() const { return *schema_; }

  struct Grant {
    std::string user;
    std::string view;
    AccessMode mode;

    bool operator==(const Grant&) const = default;
  };
  // Every grant, in grant order (used by persistence and audits).
  const std::vector<Grant>& grants() const { return permissions_; }
  // Does `grant` apply to `user`, directly or through a group the user
  // belongs to? Enforcement and both analyses resolve grants with this.
  bool GrantApplies(const Grant& grant, std::string_view user) const;

  // A recorded deny: the administrator revoked this exact grant and has
  // not re-issued it since. The static analyzer (src/analysis) uses the
  // record to detect shadowed denies — revocations whose effect is still
  // re-granted by a group grant or by a broader permitted view. A later
  // Permit of the same (user, view, mode) clears the record; dropping
  // the view clears its records.
  const std::vector<Grant>& revocations() const { return revocations_; }

  // --- Group membership -------------------------------------------------
  // Views may be permitted to groups; a user holds a grant when it names
  // the user directly or a group the user belongs to. Groups are flat
  // (no nesting).
  Status AddMember(std::string_view user, std::string_view group);
  Status RemoveMember(std::string_view user, std::string_view group);
  bool IsMember(std::string_view user, std::string_view group) const;
  const std::map<std::string, std::set<std::string>, std::less<>>&
  group_members() const {
    return group_members_;
  }

  // Bumped on every mutation (view definition/drop, permit, deny, group
  // membership); equal to the sequence number of the newest journal
  // record. The authorization cache (authz/authz_cache.h) replays the
  // journal from its last synced sequence number and drops only the
  // entries each record's (users, scopes) dependency test selects.
  long long catalog_version() const { return catalog_version_; }

  // Appends the journal records with sequence numbers in (since, now]
  // to *out (oldest first). Returns false — with *out untouched — when
  // the bounded journal no longer reaches back to `since`; the caller
  // must then treat every cached entry as potentially stale.
  bool MutationsSince(long long since, std::vector<CatalogMutation>* out)
      const;

  // Reverse-dependency query: every view (grant name, in definition
  // order) with a branch defined over `relation`. Views are defined over
  // base relations only, so a branch's `relations` is its whole read
  // set, even when some view shares its name with a relation.
  std::vector<std::string> ViewsReferencingRelation(
      std::string_view relation) const;

 private:
  // Deep copy used by Clone(); shares synthetic_alloc_ (see Clone).
  ViewCatalog(const ViewCatalog&) = default;

  // Compiles one conjunctive definition without registering it.
  Result<ViewDefinition> CompileView(const std::string& display_name,
                                     const ConjunctiveQuery& query);
  // Registers the compiled branches of a new view under `name` and
  // journals the definition.
  void RegisterView(std::string name, std::vector<ViewDefinition> branches);

  // Advances catalog_version_ and appends the matching journal record.
  void RecordMutation(CatalogMutation::Kind kind, std::string view,
                      std::vector<std::string> users,
                      std::vector<std::set<std::string>> scopes);
  // The users a grant issued to `grantee` applies to, resolved now:
  // the grantee itself plus the current members when it is a group.
  std::vector<std::string> AffectedUsers(std::string_view grantee) const;
  // One scope per branch of `view`: the branch's `relations`.
  std::vector<std::set<std::string>> BranchScopes(
      std::string_view view) const;
  // One scope per branch of every view `group` holds a retrieve grant
  // on; the scopes a membership change in that group can touch.
  std::vector<std::set<std::string>> GroupGrantScopes(
      std::string_view group) const;

  // Owning or non-owning (no-op deleter) handle; see the constructors.
  std::shared_ptr<const DatabaseSchema> schema_;
  // Grant name -> the view's branches: one definition for a conjunctive
  // view, one per `or` branch for a disjunctive one. Branches are never
  // added to or removed from a stored view, so pointers to them stay
  // valid until the view is dropped.
  std::map<std::string, std::vector<ViewDefinition>, std::less<>> views_;
  // Grant names in definition order.
  std::vector<std::string> view_order_;
  // Grants in grant order.
  std::vector<Grant> permissions_;
  // Revoked grants that were not re-issued (see revocations()).
  std::vector<Grant> revocations_;
  VarId next_var_ = 1;
  AtomId next_atom_ = 1;
  std::map<AtomId, AtomInfo> atom_info_;
  // Shared across every clone of this catalog (see Clone); ids must be
  // globally unique across catalog versions, not per version.
  std::shared_ptr<VarAllocator> synthetic_alloc_ =
      std::make_shared<VarAllocator>(1000000);
  // Group name -> members.
  std::map<std::string, std::set<std::string>, std::less<>> group_members_;
  long long catalog_version_ = 0;
  // Mutation journal, oldest first; journal_.back().seq ==
  // catalog_version_ once any mutation has happened. Bounded: once
  // kJournalCapacity is exceeded the oldest records are discarded and
  // MutationsSince reports truncation for readers that far behind.
  static constexpr size_t kJournalCapacity = 4096;
  std::deque<CatalogMutation> journal_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_META_VIEW_STORE_H_
