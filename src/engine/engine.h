// The database front-end promised by the paper's conclusion (Section 6):
// "The user will define access authorization with permit statements, and
// the system will insert automatically the appropriate meta-tuples into
// the meta-relations. In response to a retrieve statement, the user will
// receive a derived relation, whose structure corresponds to the request
// but whose tuples include only permitted values, and a set of inferred
// permit statements describing the portion delivered."
//
// Engine owns the database instance, the view catalog, the authorization
// cache and the audit log, and executes surface-language statements,
// returning rendered output. Engine::Retrieve returns a retrieve's
// structured result (the masked answer, flags and inferred permits)
// instead of text. Meta-relations and meta-tuple notation stay
// completely transparent.
//
// The engine keeps no per-request state: each retrieve's result belongs
// to its caller, and the audit log synchronizes itself and hands readers
// copies, so concurrent sessions never share a result.
//
// Concurrency model — versioned snapshots. Engine state (database
// instance + view catalog) lives in an immutable, refcounted EngineState.
// Retrieves (and explains, dumps, analyses) pin the published snapshot
// with one shared_ptr copy and then run lock-free end to end; they can
// never observe a half-applied mutation. Mutations serialize on the
// state mutex, fork the head (copy-on-write: the fork shares the
// database and catalog objects, and the statement clones only what it
// writes), and atomically install the new version on success — a failed
// statement simply drops the fork. The DurableEngine additionally defers
// publication until a commit batch is fsynced (SetDeferPublication), so
// readers also never observe an acknowledged-then-rolled-back state.
// The authorization cache is shared across snapshots, and mutations never
// touch it: each retrieve's cache txn catches it up to the retrieve's own
// snapshot, so it only ever sees published catalogs. Entries are keyed
// by catalog version so old-snapshot readers hit only entries their
// catalog version already covers (authz/authz_cache.h).

#ifndef VIEWAUTH_ENGINE_ENGINE_H_
#define VIEWAUTH_ENGINE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/catalog_analyzer.h"
#include "analysis/disclosure_auditor.h"
#include "authz/audit_log.h"
#include "authz/authz_cache.h"
#include "authz/authorizer.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "engine/admission.h"
#include "meta/view_store.h"
#include "parser/ast.h"
#include "storage/relation.h"

namespace viewauth {

// The administrator: an engine's default session user, and the one
// server identity that may run administrative statements and `as USER`.
inline constexpr std::string_view kAdminUser = "admin";

class Engine {
 public:
  Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The ambient user on whose behalf retrieve statements run when they
  // carry no `as USER` clause. DDL / view / permit statements are
  // administrator actions and are not gated (the paper scopes
  // administration out).
  void SetSessionUser(std::string user) { session_user_ = std::move(user); }
  const std::string& session_user() const { return session_user_; }

  AuthorizationOptions& options() { return options_; }

  // Executes one statement (parsing it first) and returns displayable
  // output: confirmations for DDL/DML, a rendered masked relation plus
  // inferred permit statements for retrieves.
  Result<std::string> Execute(const std::string& statement_text);
  // As above, for a parsed statement. Non-null `limits` compose over
  // options() — strictest wins (TightenLimits); the wire server threads
  // each request's deadline through here. They govern retrieves only.
  Result<std::string> ExecuteParsed(const Statement& statement,
                                    const ExecLimits* limits = nullptr);

  // Runs a retrieve statement and returns its structured result: the
  // masked answer, the denied / full-access flags and the decision with
  // its inferred permits. The raw_answer is empty: the engine never
  // hands out the unmasked rows. The decision is audited exactly as
  // Execute audits it. InvalidArgument for any other statement.
  Result<AuthorizationResult> Retrieve(const std::string& retrieve_text);

  // Drain gate for graceful shutdown: while draining, new retrieves are
  // shed at admission with Unavailable (queued waiters wake to the same
  // verdict); retrieves already running finish normally.
  void SetDraining(bool draining) { admission_.SetDraining(draining); }

  // Executes a whole script, concatenating the statements' outputs.
  Result<std::string> ExecuteScript(const std::string& script_text);

  // Explains the authorization of a retrieve statement: parses it and
  // returns the stage-by-stage mask-derivation trace (no data touched).
  Result<std::string> ExplainRetrieve(const std::string& retrieve_text);

  // Serializes the complete engine state — schema, data, views, grants —
  // as a statement script; feeding it to a fresh engine's ExecuteScript
  // restores an equivalent state. Reads the published snapshot (under
  // deferred publication, the durable state).
  Result<std::string> DumpScript() const;

  // Runs the static catalog analyzer (src/analysis) over the current
  // views, grants, group memberships and recorded denies. Read-only,
  // lock-free against the published snapshot. The surface-language
  // `analyze` statement and the viewauth_lint tool both go through here.
  AnalysisReport AnalyzeCatalog(const AnalysisOptions& options = {}) const;

  // Runs the disclosure auditor (src/analysis/disclosure_auditor.h) over
  // the current catalog: per-user disclosure closures, inference-channel
  // and deny-bypass findings, and — when options.drift_since_seq >= 0 —
  // the journal-differential drift report. Read-only, lock-free against
  // the published snapshot. The surface-language `analyze audit`
  // statement and viewauth_lint --audit both go through here.
  AnalysisReport AuditCatalog(const DisclosureAuditOptions& options = {}) const;

  // Direct access to the head state, for setup scripts and tests. These
  // bypass the snapshot fork: writing through db()/catalog() while a
  // retrieve runs concurrently, or while a DurableEngine batch is
  // staged, mutates shared objects in place — quiesced use only.
  DatabaseInstance& db() { return *live_->db; }
  const DatabaseInstance& db() const { return *live_->db; }
  ViewCatalog& catalog() { return *live_->catalog; }
  // The mask-pipeline cache and its observability counters (the REPL's
  // \stats command reads the snapshot).
  AuthzCache& authz_cache() { return authz_cache_; }
  // Cache + governor counters merged with the admission controller's.
  AuthzStats authz_stats() const;
  void ResetAuthzStats();

  // Number of engine-state versions currently alive: the head, the
  // published snapshot when it differs, and every older version still
  // pinned by an in-flight retrieve. 1 when idle — the leak check the
  // concurrency tests assert after cancelled/aborted retrieves unwind.
  long long snapshots_live() const {
    return state_count_->load(std::memory_order_relaxed);
  }

  // --- deferred publication (DurableEngine group commit) ----------------
  // With deferred publication on, a committed mutation advances only the
  // private head; retrieves keep reading the last published snapshot
  // until PublishStaged() installs the head. This is what keeps
  // not-yet-fsynced (and, after a batch abort, rolled-back) mutations
  // invisible to readers.
  void SetDeferPublication(bool defer);
  // Publishes the staged head (after the batch fsync succeeded).
  void PublishStaged();
  // Drops every staged-but-unpublished mutation, restoring the head to
  // the published snapshot (whole-batch abort). The authorization cache
  // keeps its entries: it never synced past the published snapshot.
  void DiscardStaged();

  // Cooperatively cancels every retrieve currently executing: each one
  // aborts at its next governor probe with Status::Cancelled, leaving no
  // trace in the authorization cache. Returns how many were signalled.
  int CancelActiveRetrieves();
  // Every user-attributed decision (retrieves, guarded updates) lands in
  // the audit log; administrative statements do not. The log is
  // thread-safe and its readers get copies.
  const AuditLog& audit_log() const { return audit_log_; }

 private:
  // One immutable version of engine state. Forked per mutation; shared
  // members are cloned lazily (copy-on-write) by MutableDb /
  // MutableCatalog when the statement actually writes them.
  struct EngineState {
    std::shared_ptr<DatabaseInstance> db;
    std::shared_ptr<ViewCatalog> catalog;
  };

  Result<std::string> ExecuteRelation(const RelationStmt& stmt);
  Result<std::string> ExecuteInsert(const InsertStmt& stmt);
  Result<std::string> ExecuteView(const ViewStmt& stmt);
  Result<std::string> ExecutePermit(const PermitStmt& stmt);
  Result<std::string> ExecuteDeny(const DenyStmt& stmt);
  // The user a retrieve runs as: its `as` clause, else the session user.
  const std::string& UserOf(const RetrieveStmt& stmt) const {
    return stmt.as_user.empty() ? session_user_ : stmt.as_user;
  }
  // The one retrieve path: admission, snapshot pin, ExecContext
  // registration, authorization of every or-branch, and the audit
  // append, which shares the decision's rendered permits with the
  // reply. The raw answer is freed before returning, on the calling
  // thread.
  Result<AuthorizationResult> RunRetrieve(const RetrieveStmt& stmt,
                                          const ExecLimits* limits);
  Result<std::string> ExecuteDelete(const DeleteStmt& stmt);
  Result<std::string> ExecuteModify(const ModifyStmt& stmt);
  Result<std::string> ExecuteDrop(const DropStmt& stmt);
  Result<std::string> ExecuteMember(const MemberStmt& stmt);

  // Allocates a tracked EngineState (snapshots_live accounting).
  std::shared_ptr<EngineState> MakeState(std::shared_ptr<DatabaseInstance> db,
                                         std::shared_ptr<ViewCatalog> catalog);
  // The published snapshot, pinned (the lock-free read entry point).
  std::shared_ptr<const EngineState> SnapshotNow() const;
  // published_ = live_. Requires state_mutex_.
  void PublishLocked();
  // Copy-on-write accessors for the statement being executed under
  // state_mutex_: clone the head's database / catalog if a snapshot
  // still shares it, then return the private object.
  DatabaseInstance& MutableDb();
  ViewCatalog& MutableCatalog();

  // RAII registration of a retrieve's ExecContext in the cancellation
  // registry (defined in engine.cc).
  class ActiveContextGuard;
  // When options_.analyze_grants is set, the analyzer findings anchored
  // to (view, user) rendered as report lines; empty otherwise. Reads the
  // head catalog; called only from mutations under state_mutex_.
  std::string GrantAnalysisNotes(const std::string& view,
                                 const std::string& user) const;
  // When options_.audit_grants is set, the disclosure auditor's verdict
  // on the grant just touched, rendered as report lines; empty otherwise.
  // On permit: the marginal closure facts the grant contributed and any
  // inference channel it participates in. On deny: whether the deny is
  // vacuous against the surviving permits' closure. Fires on both permit
  // and deny so a vacuous deny is flagged at entry, not at the next
  // whole-catalog audit.
  std::string GrantAuditNotes(const std::string& view,
                              const std::string& user, AccessMode mode,
                              bool is_deny) const;

  // Live count of EngineState objects (shared with their deleters, which
  // may outlive a hypothetical engine teardown while a reader drains).
  std::shared_ptr<std::atomic<long long>> state_count_ =
      std::make_shared<std::atomic<long long>>(0);
  // The mutation head. Equals published_ except while a DurableEngine
  // batch is staged under deferred publication.
  std::shared_ptr<EngineState> live_;
  // What SnapshotNow() hands to readers.
  std::shared_ptr<EngineState> published_;
  // Guards published_ against concurrent SnapshotNow readers; never held
  // while executing anything.
  mutable std::mutex publish_mutex_;
  bool defer_publication_ = false;
  AuthzCache authz_cache_;
  AuthorizationOptions options_;
  std::string session_user_{kAdminUser};
  AuditLog audit_log_;
  // Serializes mutating statements (fork → execute → install). Retrieves
  // do not touch it — they read the published snapshot.
  std::mutex state_mutex_;
  // Bounds concurrent retrieves per options_.max_concurrent; mutating
  // statements bypass it (they serialize on state_mutex_).
  AdmissionController admission_;
  // Execution contexts of in-flight retrieves, for CancelActiveRetrieves.
  std::mutex cancel_mutex_;
  std::vector<ExecContext*> active_contexts_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_ENGINE_ENGINE_H_
