#include "engine/engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "authz/update_guard.h"
#include "common/str_util.h"
#include "engine/table_printer.h"
#include "parser/parser.h"

namespace viewauth {

Engine::Engine() {
  auto db = std::make_shared<DatabaseInstance>();
  auto catalog = std::make_shared<ViewCatalog>(db->schema_ptr());
  live_ = MakeState(std::move(db), std::move(catalog));
  published_ = live_;
}

std::shared_ptr<Engine::EngineState> Engine::MakeState(
    std::shared_ptr<DatabaseInstance> db,
    std::shared_ptr<ViewCatalog> catalog) {
  // The counter rides in the deleter so a reader releasing the last pin
  // of an old version decrements it no matter when that happens.
  std::shared_ptr<std::atomic<long long>> counter = state_count_;
  counter->fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<EngineState>(
      new EngineState{std::move(db), std::move(catalog)},
      [counter](EngineState* state) {
        counter->fetch_sub(1, std::memory_order_relaxed);
        delete state;
      });
}

std::shared_ptr<const Engine::EngineState> Engine::SnapshotNow() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return published_;
}

void Engine::PublishLocked() {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  published_ = live_;
}

void Engine::SetDeferPublication(bool defer) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  defer_publication_ = defer;
}

void Engine::PublishStaged() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  PublishLocked();
}

void Engine::DiscardStaged() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  live_ = published_;
}

DatabaseInstance& Engine::MutableDb() {
  if (live_->db.use_count() > 1) {
    live_->db = std::make_shared<DatabaseInstance>(*live_->db);
  }
  return *live_->db;
}

ViewCatalog& Engine::MutableCatalog() {
  if (live_->catalog.use_count() > 1) {
    live_->catalog = live_->catalog->Clone(live_->db->schema_ptr());
  } else {
    // Already private; just make sure it points at the head's schema
    // (DDL in this same statement may have cloned it).
    live_->catalog->RebindSchema(live_->db->schema_ptr());
  }
  return *live_->catalog;
}

Result<std::string> Engine::Execute(const std::string& statement_text) {
  VIEWAUTH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement_text));
  return ExecuteParsed(stmt);
}

Result<std::string> Engine::ExecuteParsed(const Statement& statement,
                                          const ExecLimits* limits) {
  // Retrieves and analyses pin the published snapshot and run lock-free;
  // every other statement may mutate engine state and serializes on the
  // state mutex.
  if (const auto* retrieve = std::get_if<RetrieveStmt>(&statement)) {
    VIEWAUTH_ASSIGN_OR_RETURN(AuthorizationResult result,
                              RunRetrieve(*retrieve, limits));
    if (result.denied) {
      return std::string(
          "permission denied: no permitted view covers this request");
    }
    TablePrintOptions print_options;
    print_options.caption = "result for " + UserOf(*retrieve) + ":";
    if (const auto& rendered = result.decision->rendered_permits) {
      print_options.trailer = rendered->lines();
    }
    // The delivered answer is freed here, on the thread that built it.
    return PrintRelation(result.answer, print_options);
  }
  if (const auto* analyze = std::get_if<AnalyzeStmt>(&statement)) {
    const std::shared_ptr<const EngineState> snapshot = SnapshotNow();
    const ViewCatalog* catalog = snapshot->catalog.get();
    AnalysisReport report = CatalogAnalyzer(catalog).Analyze({});
    if (analyze->audit) report.Merge(DisclosureAuditor(catalog).Audit({}));
    return report.ToString(/*include_coverage=*/true);
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  // Fork the head: the fork shares the database and catalog objects, and
  // the statement clones what it writes (MutableDb / MutableCatalog). On
  // failure the fork is dropped whole — even a statement that fails
  // halfway through its writes leaves no trace.
  const std::shared_ptr<EngineState> prev = live_;
  live_ = MakeState(prev->db, prev->catalog);
  Result<std::string> out = std::visit(
      [this](const auto& stmt) -> Result<std::string> {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, RelationStmt>) {
          return ExecuteRelation(stmt);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return ExecuteInsert(stmt);
        } else if constexpr (std::is_same_v<T, ViewStmt>) {
          return ExecuteView(stmt);
        } else if constexpr (std::is_same_v<T, PermitStmt>) {
          return ExecutePermit(stmt);
        } else if constexpr (std::is_same_v<T, DenyStmt>) {
          return ExecuteDeny(stmt);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return ExecuteDelete(stmt);
        } else if constexpr (std::is_same_v<T, ModifyStmt>) {
          return ExecuteModify(stmt);
        } else if constexpr (std::is_same_v<T, DropStmt>) {
          return ExecuteDrop(stmt);
        } else if constexpr (std::is_same_v<T, MemberStmt>) {
          return ExecuteMember(stmt);
        } else {
          // Retrieves and analyses returned above, before the lock.
          return Status::Internal("read-only statement on the write path");
        }
      },
      statement);
  if (!out.ok()) {
    live_ = prev;
    return out;
  }
  if (!defer_publication_) PublishLocked();
  return out;
}

Result<std::string> Engine::ExecuteScript(const std::string& script_text) {
  VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                            ParseProgram(script_text));
  std::ostringstream out;
  for (const Statement& stmt : statements) {
    VIEWAUTH_ASSIGN_OR_RETURN(std::string output, ExecuteParsed(stmt));
    if (!output.empty()) out << output << "\n";
  }
  return out.str();
}

namespace {

// Renders a ColumnRef as surface syntax ("EMPLOYEE.NAME",
// "EMPLOYEE:2.NAME").
std::string RenderColumn(const ConjunctiveQuery& query,
                         const ColumnRef& ref) {
  const MembershipAtom& atom = query.atoms()[static_cast<size_t>(ref.atom)];
  AttributeRef attr;
  attr.relation = atom.relation;
  attr.occurrence = atom.occurrence;
  attr.attribute = query.atom_schema(ref.atom).attribute(ref.attr).name;
  return attr.ToString();
}

// Renders one branch's conjunctive conditions.
std::string RenderConditions(const ConjunctiveQuery& query) {
  std::vector<std::string> parts;
  for (const CalculusCondition& cond : query.conditions()) {
    std::string text = RenderColumn(query, cond.lhs);
    text += " ";
    text += ComparatorToString(cond.op);
    text += " ";
    if (cond.rhs_is_column) {
      text += RenderColumn(query, cond.rhs_column);
    } else {
      text += cond.rhs_const.ToDisplayString(/*commas=*/false);
    }
    parts.push_back(std::move(text));
  }
  return Join(parts, " and ");
}

}  // namespace

Result<std::string> Engine::ExplainRetrieve(
    const std::string& retrieve_text) {
  VIEWAUTH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(retrieve_text));
  const auto* retrieve = std::get_if<RetrieveStmt>(&stmt);
  if (retrieve == nullptr) {
    return Status::InvalidArgument("explain expects a retrieve statement");
  }
  const std::shared_ptr<const EngineState> snapshot = SnapshotNow();
  const std::string& user = UserOf(*retrieve);
  VIEWAUTH_ASSIGN_OR_RETURN(
      ConjunctiveQuery query,
      ConjunctiveQuery::FromRetrieve(snapshot->db->schema(), *retrieve));
  const Authorizer authorizer(snapshot->db.get(), snapshot->catalog.get(),
                              &authz_cache_);
  VIEWAUTH_ASSIGN_OR_RETURN(MaskTrace trace,
                            authorizer.Explain(user, query, options_));
  return "explain for " + user + ":\n" + trace.ToString();
}

Result<std::string> Engine::DumpScript() const {
  const std::shared_ptr<const EngineState> snapshot = SnapshotNow();
  const DatabaseInstance& db = *snapshot->db;
  const ViewCatalog& catalog = *snapshot->catalog;
  std::ostringstream out;
  // Schema.
  for (const std::string& name : db.schema().relation_names()) {
    VIEWAUTH_ASSIGN_OR_RETURN(const RelationSchema* schema,
                              db.schema().GetRelation(name));
    std::vector<std::string> attrs;
    for (int i = 0; i < schema->arity(); ++i) {
      const Attribute& attr = schema->attribute(i);
      std::string decl = attr.name;
      decl += " ";
      decl += ValueTypeToString(attr.type);
      if (schema->IsKeyAttribute(i)) decl += " key";
      attrs.push_back(std::move(decl));
    }
    out << "relation " << name << " (" << Join(attrs, ", ") << ")\n";
  }
  // Data.
  for (const std::string& name : db.schema().relation_names()) {
    VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(name));
    for (const Tuple& row : rel->SortedRows()) {
      std::vector<std::string> values;
      for (const Value& v : row.values()) {
        values.push_back(v.ToDisplayString(/*commas=*/false));
      }
      out << "insert into " << name << " values (" << Join(values, ", ")
          << ")\n";
    }
  }
  // Views (disjunctive groups re-assemble their branches with `or`).
  for (const std::string& name : catalog.view_names()) {
    VIEWAUTH_ASSIGN_OR_RETURN(std::vector<const ViewDefinition*> branches,
                              catalog.GetViewBranches(name));
    const ConjunctiveQuery& first = branches.front()->query;
    std::vector<std::string> targets;
    for (const ColumnRef& target : first.targets()) {
      targets.push_back(RenderColumn(first, target));
    }
    out << "view " << name << " (" << Join(targets, ", ") << ")";
    std::vector<std::string> wheres;
    for (const ViewDefinition* branch : branches) {
      wheres.push_back(RenderConditions(branch->query));
    }
    // A single branch with no conditions needs no where clause; multiple
    // branches always render each conjunction (an empty one cannot occur:
    // it would subsume the others at definition time).
    if (!(wheres.size() == 1 && wheres[0].empty())) {
      out << " where " << Join(wheres, " or ");
    }
    out << "\n";
  }
  // Group membership.
  for (const auto& [group, members] : catalog.group_members()) {
    for (const std::string& member : members) {
      out << "member " << member << " of " << group << "\n";
    }
  }
  // Grants.
  for (const ViewCatalog::Grant& grant : catalog.grants()) {
    out << "permit " << grant.view << " to " << grant.user;
    if (grant.mode != AccessMode::kRetrieve) {
      out << " for " << AccessModeToString(grant.mode);
    }
    out << "\n";
  }
  return out.str();
}

Result<std::string> Engine::ExecuteRelation(const RelationStmt& stmt) {
  std::vector<Attribute> attributes;
  std::vector<int> key;
  for (size_t i = 0; i < stmt.attributes.size(); ++i) {
    const auto& decl = stmt.attributes[i];
    attributes.push_back(Attribute{decl.name, decl.type});
    if (decl.is_key) key.push_back(static_cast<int>(i));
  }
  VIEWAUTH_ASSIGN_OR_RETURN(
      RelationSchema schema,
      RelationSchema::Make(stmt.name, std::move(attributes), std::move(key)));
  VIEWAUTH_RETURN_NOT_OK(MutableDb().CreateRelation(std::move(schema)));
  // The create cloned the schema under any live snapshot; repoint the
  // head catalog at the new schema object.
  MutableCatalog();
  return "created relation " + stmt.name;
}

Result<std::string> Engine::ExecuteInsert(const InsertStmt& stmt) {
  VIEWAUTH_ASSIGN_OR_RETURN(const Relation* rel,
                            std::as_const(*live_->db).GetRelation(stmt.relation));
  const RelationSchema& schema = rel->schema();
  if (static_cast<int>(stmt.values.size()) != schema.arity()) {
    return Status::SchemaMismatch(
        "insert into " + stmt.relation + ": expected " +
        std::to_string(schema.arity()) + " values, got " +
        std::to_string(stmt.values.size()));
  }
  std::vector<Value> values;
  values.reserve(stmt.values.size());
  for (int i = 0; i < schema.arity(); ++i) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        Value value, CoerceLiteral(stmt.values[static_cast<size_t>(i)],
                                   schema.attribute(i).type));
    values.push_back(std::move(value));
  }
  Tuple tuple(std::move(values));
  // With an `as USER` clause, the insert is subject to insert-mode
  // permissions; without it the statement is an administrative load.
  if (!stmt.as_user.empty()) {
    UpdateGuard guard(live_->db.get(), live_->catalog.get());
    AuditEntry audit;
    audit.user = stmt.as_user;
    audit.statement = stmt.ToString();
    Status allowed = guard.CheckInsert(stmt.as_user, stmt.relation, tuple);
    if (!allowed.ok()) {
      audit.outcome = AuditOutcome::kInsertDenied;
      audit_log_.Record(std::move(audit));
      return allowed;
    }
    audit.outcome = AuditOutcome::kInsertAllowed;
    audit.affected = 1;
    audit_log_.Record(std::move(audit));
  }
  VIEWAUTH_RETURN_NOT_OK(MutableDb().Insert(stmt.relation, std::move(tuple)));
  return std::string();  // silent, like bulk loads
}

Result<std::string> Engine::ExecuteDelete(const DeleteStmt& stmt) {
  VIEWAUTH_ASSIGN_OR_RETURN(Relation * rel,
                            MutableDb().GetRelation(stmt.relation));
  if (stmt.as_user.empty()) {
    // Administrative delete: remove every matching row.
    VIEWAUTH_ASSIGN_OR_RETURN(
        ResolvedWrite write, ResolveWrite("delete", stmt.relation,
                                          rel->schema(), {}, stmt.conditions));
    std::vector<Tuple> matching;
    for (const Tuple& row : *rel) {
      if (write.predicate.Matches(row)) matching.push_back(row);
    }
    for (const Tuple& row : matching) rel->Erase(row);
    return "deleted " + std::to_string(matching.size()) + " row(s)";
  }

  UpdateGuard guard(live_->db.get(), live_->catalog.get());
  VIEWAUTH_ASSIGN_OR_RETURN(
      UpdateGuard::DeleteDecision decision,
      guard.AuthorizeDelete(stmt.as_user, stmt.relation, stmt.conditions));
  for (const Tuple& row : decision.deletable) rel->Erase(row);
  AuditEntry audit;
  audit.user = stmt.as_user;
  audit.statement = stmt.ToString();
  audit.outcome = AuditOutcome::kDeleteApplied;
  audit.affected = static_cast<int>(decision.deletable.size());
  audit.withheld = decision.withheld;
  audit_log_.Record(std::move(audit));
  std::string out =
      "deleted " + std::to_string(decision.deletable.size()) + " row(s)";
  if (decision.withheld > 0) {
    out += " (" + std::to_string(decision.withheld) +
           " withheld by permissions)";
  }
  return out;
}

Result<std::string> Engine::ExecuteModify(const ModifyStmt& stmt) {
  VIEWAUTH_ASSIGN_OR_RETURN(Relation * rel,
                            MutableDb().GetRelation(stmt.relation));
  UpdateGuard::ModifyDecision decision;
  if (stmt.as_user.empty()) {
    // Administrative modify: every matching row changes.
    VIEWAUTH_ASSIGN_OR_RETURN(
        ResolvedWrite write,
        ResolveWrite("modify", stmt.relation, rel->schema(), stmt.assignments,
                     stmt.conditions));
    for (const Tuple& row : *rel) {
      if (!write.predicate.Matches(row)) continue;
      Tuple updated = write.Apply(row);
      if (!(updated == row)) {
        decision.changes.emplace_back(row, std::move(updated));
      }
    }
  } else {
    UpdateGuard guard(live_->db.get(), live_->catalog.get());
    VIEWAUTH_ASSIGN_OR_RETURN(
        decision,
        guard.AuthorizeModify(stmt.as_user, stmt.relation, stmt.assignments,
                              stmt.conditions));
  }

  int applied = 0;
  int conflicted = 0;
  for (const auto& [old_row, new_row] : decision.changes) {
    rel->Erase(old_row);
    Status inserted = rel->Insert(new_row);
    if (inserted.ok()) {
      ++applied;
    } else {
      // Key conflict with another row: restore the original.
      (void)rel->Insert(old_row);
      ++conflicted;
    }
  }
  if (!stmt.as_user.empty()) {
    AuditEntry audit;
    audit.user = stmt.as_user;
    audit.statement = stmt.ToString();
    audit.outcome = AuditOutcome::kModifyApplied;
    audit.affected = applied;
    audit.withheld = decision.withheld;
    audit_log_.Record(std::move(audit));
  }
  std::string out = "modified " + std::to_string(applied) + " row(s)";
  if (decision.withheld > 0) {
    out += " (" + std::to_string(decision.withheld) +
           " withheld by permissions)";
  }
  if (conflicted > 0) {
    out += " (" + std::to_string(conflicted) + " key conflict(s))";
  }
  return out;
}

Result<std::string> Engine::ExecuteDrop(const DropStmt& stmt) {
  if (stmt.is_view) {
    VIEWAUTH_RETURN_NOT_OK(MutableCatalog().DropView(stmt.name));
    return "dropped view " + stmt.name;
  }
  // Restrict semantics: a relation referenced by any stored view cannot
  // be dropped (the views would silently dangle otherwise).
  const std::vector<std::string> referencing =
      live_->catalog->ViewsReferencingRelation(stmt.name);
  if (!referencing.empty()) {
    return Status::InvalidArgument("relation '" + stmt.name +
                                   "' is referenced by view '" +
                                   referencing.front() +
                                   "'; drop the view first");
  }
  VIEWAUTH_RETURN_NOT_OK(MutableDb().DropRelation(stmt.name));
  // The drop cloned the schema under any live snapshot; repoint the head
  // catalog at the new schema object.
  MutableCatalog();
  return "dropped relation " + stmt.name;
}

Result<std::string> Engine::ExecuteMember(const MemberStmt& stmt) {
  ViewCatalog& catalog = MutableCatalog();
  if (stmt.remove) {
    VIEWAUTH_RETURN_NOT_OK(catalog.RemoveMember(stmt.user, stmt.group));
    return "removed " + stmt.user + " from " + stmt.group;
  }
  VIEWAUTH_RETURN_NOT_OK(catalog.AddMember(stmt.user, stmt.group));
  return "added " + stmt.user + " to " + stmt.group;
}

Result<std::string> Engine::ExecuteView(const ViewStmt& stmt) {
  VIEWAUTH_RETURN_NOT_OK(MutableCatalog().DefineView(stmt));
  return "defined view " + stmt.name;
}

namespace {

AccessMode ToAccessMode(GrantMode mode) {
  switch (mode) {
    case GrantMode::kRetrieve:
      return AccessMode::kRetrieve;
    case GrantMode::kInsert:
      return AccessMode::kInsert;
    case GrantMode::kDelete:
      return AccessMode::kDelete;
    case GrantMode::kModify:
      return AccessMode::kModify;
  }
  return AccessMode::kRetrieve;
}

}  // namespace

Result<std::string> Engine::ExecutePermit(const PermitStmt& stmt) {
  VIEWAUTH_RETURN_NOT_OK(MutableCatalog().Permit(stmt.view, stmt.user,
                                                 ToAccessMode(stmt.mode)));
  std::string out = "permitted " + stmt.view + " to " + stmt.user;
  if (stmt.mode != GrantMode::kRetrieve) {
    out += " for " + std::string(GrantModeToString(stmt.mode));
  }
  out += GrantAnalysisNotes(stmt.view, stmt.user);
  out += GrantAuditNotes(stmt.view, stmt.user, ToAccessMode(stmt.mode),
                         /*is_deny=*/false);
  return out;
}

Result<std::string> Engine::ExecuteDeny(const DenyStmt& stmt) {
  VIEWAUTH_RETURN_NOT_OK(MutableCatalog().Deny(stmt.view, stmt.user,
                                               ToAccessMode(stmt.mode)));
  std::string out = "denied " + stmt.view + " to " + stmt.user;
  if (stmt.mode != GrantMode::kRetrieve) {
    out += " for " + std::string(GrantModeToString(stmt.mode));
  }
  out += GrantAnalysisNotes(stmt.view, stmt.user);
  out += GrantAuditNotes(stmt.view, stmt.user, ToAccessMode(stmt.mode),
                         /*is_deny=*/true);
  return out;
}

AnalysisReport Engine::AnalyzeCatalog(const AnalysisOptions& options) const {
  const std::shared_ptr<const EngineState> snapshot = SnapshotNow();
  return CatalogAnalyzer(snapshot->catalog.get()).Analyze(options);
}

AnalysisReport Engine::AuditCatalog(
    const DisclosureAuditOptions& options) const {
  const std::shared_ptr<const EngineState> snapshot = SnapshotNow();
  return DisclosureAuditor(snapshot->catalog.get()).Audit(options);
}

std::string Engine::GrantAnalysisNotes(const std::string& view,
                                       const std::string& user) const {
  if (!options_.analyze_grants) return {};
  CatalogAnalyzer analyzer(live_->catalog.get());
  std::string out;
  for (const Diagnostic& diagnostic : analyzer.AnalyzeGrant(view, user)) {
    out += "\n" + diagnostic.ToString();
  }
  return out;
}

std::string Engine::GrantAuditNotes(const std::string& view,
                                    const std::string& user, AccessMode mode,
                                    bool is_deny) const {
  // Only retrieve grants change the disclosure closure.
  if (!options_.audit_grants || mode != AccessMode::kRetrieve) return {};
  DisclosureAuditor auditor(live_->catalog.get());
  const DisclosureAuditOptions audit_options;
  std::string out;
  if (is_deny) {
    ViewCatalog::Grant revocation{user, view, mode};
    if (std::optional<Diagnostic> d =
            auditor.CheckDenyBypass(revocation, audit_options)) {
      out += "\n" + d->ToString();
    }
    return out;
  }
  std::vector<DisclosureFact> marginal =
      auditor.MarginalDisclosure(view, user, audit_options);
  int emitted = 0;
  for (const DisclosureFact& fact : marginal) {
    if (emitted >= audit_options.max_drift_facts_per_grant) break;
    ++emitted;
    out += "\n  discloses " + RenderFact(*live_->catalog, fact);
    if (fact.depth() > 1) out += " (in composition " + fact.SourceLabel() + ")";
  }
  if (static_cast<int>(marginal.size()) > emitted) {
    out += "\n  ... and " + std::to_string(marginal.size() - emitted) +
           " more closure fact(s)";
  }
  UserClosure closure = auditor.ClosureFor(user, audit_options);
  for (const Diagnostic& d : auditor.ChannelFindings(closure, view)) {
    out += "\n" + d.ToString();
  }
  return out;
}

AuthzStats Engine::authz_stats() const {
  AuthzStats stats = authz_cache_.Snapshot();
  admission_.FillStats(&stats);
  return stats;
}

void Engine::ResetAuthzStats() {
  authz_cache_.ResetStats();
  admission_.ResetCounters();
}

// Registers a retrieve's context for the lifetime of the statement; the
// destructor runs on every exit path, so an early return via
// VIEWAUTH_ASSIGN_OR_RETURN never leaks a registration.
class Engine::ActiveContextGuard {
 public:
  ActiveContextGuard(Engine* engine, ExecContext* ctx)
      : engine_(engine), ctx_(ctx) {
    std::lock_guard<std::mutex> lock(engine_->cancel_mutex_);
    engine_->active_contexts_.push_back(ctx_);
  }
  ActiveContextGuard(const ActiveContextGuard&) = delete;
  ActiveContextGuard& operator=(const ActiveContextGuard&) = delete;
  ~ActiveContextGuard() {
    std::lock_guard<std::mutex> lock(engine_->cancel_mutex_);
    auto& active = engine_->active_contexts_;
    active.erase(std::find(active.begin(), active.end(), ctx_));
  }

 private:
  Engine* engine_;
  ExecContext* ctx_;
};

int Engine::CancelActiveRetrieves() {
  std::lock_guard<std::mutex> lock(cancel_mutex_);
  for (ExecContext* ctx : active_contexts_) ctx->Cancel();
  return static_cast<int>(active_contexts_.size());
}

Result<AuthorizationResult> Engine::Retrieve(
    const std::string& retrieve_text) {
  VIEWAUTH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(retrieve_text));
  const auto* retrieve = std::get_if<RetrieveStmt>(&stmt);
  if (retrieve == nullptr) {
    return Status::InvalidArgument("Retrieve expects a retrieve statement");
  }
  return RunRetrieve(*retrieve, /*limits=*/nullptr);
}

Result<AuthorizationResult> Engine::RunRetrieve(const RetrieveStmt& stmt,
                                                const ExecLimits* limits) {
  // Admission happens before the snapshot pin so a queued retrieve holds
  // no version alive; the ticket frees the slot only after the retrieve
  // fully unwinds.
  VIEWAUTH_ASSIGN_OR_RETURN(AdmissionController::Ticket ticket,
                            admission_.Admit(options_));
  const std::shared_ptr<const EngineState> snapshot = SnapshotNow();
  const EngineState& state = *snapshot;
  const std::string& user = UserOf(stmt);

  // The whole statement runs against the pinned snapshot: an Authorizer
  // is three pointers, so binding one per retrieve costs nothing and
  // keeps the mask pipeline, data evaluation and cache fills all keyed
  // to the same state version even while mutations publish newer ones.
  const Authorizer authorizer(state.db.get(), state.catalog.get(),
                              &authz_cache_);

  // One context spans the whole statement — every or-branch draws on the
  // same deadline and budgets. Created even when no limits are set so
  // CancelActiveRetrieves always has a handle to signal. A per-request
  // override (the wire server's request deadline) composes with the
  // engine limits, strictest wins.
  ExecContext ctx(limits == nullptr
                      ? ExecLimitsOf(options_)
                      : TightenLimits(ExecLimitsOf(options_), *limits));
  ActiveContextGuard active(this, &ctx);

  AuthorizationResult result;
  int unmasked_rows = 0;  // A's size, for the audit
  if (stmt.or_branches.empty()) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        ConjunctiveQuery query,
        ConjunctiveQuery::FromRetrieve(state.db->schema(), stmt));
    VIEWAUTH_ASSIGN_OR_RETURN(
        result, authorizer.Retrieve(user, query, options_, &ctx));
    unmasked_rows = result.raw_answer.size();
  } else {
    // Disjunctive retrieve: each conjunctive branch is authorized and
    // evaluated independently; the delivery is the union, under a merged
    // decision built fresh (the branches' cached decisions stay as they
    // are). Denied only when every branch is denied; full access only
    // when every branch is.
    auto merged = std::make_shared<Decision>();
    RenderedPermits merged_permits;
    bool all_denied = true;
    bool all_full = true;
    std::set<std::string> permit_texts;
    // The unions of the branches' delivered and unmasked answers, so
    // that rows the branches share count once: later branches' new
    // delivered rows join the first branch's answer, and the unmasked
    // ones are only counted, each kept row named by its (branch, row).
    FirstOfEqualRows delivered;
    FirstOfEqualRows unmasked;
    std::vector<RawAnswer> raws;
    std::vector<std::pair<size_t, size_t>> kept_raws;
    for (size_t i = 0; i <= stmt.or_branches.size(); ++i) {
      const std::vector<Condition>& branch =
          i == 0 ? stmt.conditions : stmt.or_branches[i - 1];
      VIEWAUTH_ASSIGN_OR_RETURN(
          ConjunctiveQuery query,
          ConjunctiveQuery::Build(state.db->schema(), "retrieve",
                                  stmt.targets, branch));
      VIEWAUTH_ASSIGN_OR_RETURN(
          AuthorizationResult branch_result,
          authorizer.Retrieve(user, query, options_, &ctx));
      all_denied = all_denied && branch_result.denied;
      all_full = all_full && branch_result.full_access;
      // The merged rendering reuses the branches' statements.
      const std::vector<InferredPermit>& permits = branch_result.permits();
      for (size_t k = 0; k < permits.size(); ++k) {
        const std::string_view text =
            branch_result.decision->rendered_permits->permit(k);
        if (permit_texts.emplace(text).second) {
          merged->permits.push_back(permits[k]);
          merged_permits.Add(text);
        }
      }
      raws.push_back(std::move(branch_result.raw_answer));
      if (i == 0) {
        merged->mask = branch_result.mask();
        result = std::move(branch_result);
      } else if (branch_result.mask().columns() == merged->mask.columns()) {
        // Branch masks combine only when their column layouts agree;
        // under extended masks, branches over different relation sets
        // carry different wide layouts and contribute their permits
        // only.
        for (const MetaTuple& tuple : branch_result.mask().tuples()) {
          merged->mask.Add(tuple);
        }
      }
      // The first branch's rows are recorded, the later ones' appended.
      ColumnAnswer& answer = result.answer;
      const ColumnAnswer& offered = i == 0 ? answer : branch_result.answer;
      const size_t arity = static_cast<size_t>(answer.arity());
      for (size_t r = 0; r < static_cast<size_t>(offered.size()); ++r) {
        auto cell = [&](size_t k) { return offered.cell(r, k); };
        const size_t row = i == 0 ? r : static_cast<size_t>(answer.size());
        if (delivered.Keep(arity, row, cell,
                           [&](size_t kept, size_t k, const Value& value) {
                             return answer.column(k).CellEquals(kept, value);
                           }) &&
            i > 0) {
          answer.AppendRow(cell);
        }
      }
      const RawAnswer& raw = raws.back();
      for (size_t r = 0; r < static_cast<size_t>(raw.size()); ++r) {
        if (unmasked.Keep(
                arity, kept_raws.size(),
                [&](size_t k) -> const Value& { return raw.cell(r, k); },
                [&](size_t kept, size_t k, const Value& value) {
                  const auto [b, kept_r] = kept_raws[kept];
                  return raws[b].cell(kept_r, k) == value;
                })) {
          kept_raws.emplace_back(i, r);
        }
      }
    }
    unmasked_rows = static_cast<int>(kept_raws.size());
    result.denied = merged->denied = all_denied;
    result.full_access = merged->full_access = all_full;
    if (result.full_access) {
      merged->permits.clear();
    } else if (!merged->permits.empty()) {
      merged->rendered_permits =
          std::make_shared<const RenderedPermits>(std::move(merged_permits));
    }
    result.decision = std::move(merged);
  }

  AuditEntry audit;
  audit.user = user;
  audit.statement = stmt.ToString();
  if (result.denied) {
    audit.outcome = AuditOutcome::kDenied;
  } else if (result.full_access) {
    // Delivered without any accompanying permit statements (Example 3).
    audit.outcome = AuditOutcome::kFullAccess;
  } else {
    audit.outcome = AuditOutcome::kPartial;
    // The decision's rendering, shared with the reply.
    audit.rendered_permits = result.decision->rendered_permits;
  }
  if (!result.denied) {
    audit.affected = result.answer.size();
    audit.withheld = std::max(0, unmasked_rows - result.answer.size());
  }
  // The unmasked answer is not handed out: drop it here, on the thread
  // that built it, before the snapshot its row ids point into is
  // released.
  result.raw_answer = RawAnswer();
  audit_log_.Record(std::move(audit));
  return result;
}

}  // namespace viewauth
