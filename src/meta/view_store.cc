#include "meta/view_store.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace viewauth {

namespace {

// Union-find over flat column indices, used to merge variable classes
// along equality subformulas.
class ColumnUnionFind {
 public:
  explicit ColumnUnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(b)] = Find(a); }

 private:
  std::vector<int> parent_;
};

}  // namespace

Status ViewCatalog::DefineView(const ViewStmt& stmt) {
  if (stmt.or_branches.empty()) {
    VIEWAUTH_ASSIGN_OR_RETURN(ConjunctiveQuery query,
                              ConjunctiveQuery::FromView(*schema_, stmt));
    return DefineView(stmt.name, query);
  }
  // Disjunctive view: compile every branch, then commit atomically.
  if (HasView(stmt.name)) {
    return Status::AlreadyExists("view '" + stmt.name +
                                 "' already exists");
  }
  std::vector<std::vector<Condition>> branches;
  branches.push_back(stmt.conditions);
  for (const std::vector<Condition>& branch : stmt.or_branches) {
    branches.push_back(branch);
  }
  std::vector<ViewDefinition> compiled;
  for (const std::vector<Condition>& branch : branches) {
    VIEWAUTH_ASSIGN_OR_RETURN(
        ConjunctiveQuery query,
        ConjunctiveQuery::Build(*schema_, "view " + stmt.name,
                                stmt.targets, branch));
    Result<ViewDefinition> def = CompileView(stmt.name, query);
    if (!def.ok()) {
      // A provably-empty branch contributes nothing to the union and is
      // skipped; other errors abort the definition.
      if (def.status().IsInvalidArgument()) continue;
      return def.status();
    }
    compiled.push_back(std::move(*def));
  }
  if (compiled.empty()) {
    return Status::InvalidArgument("view '" + stmt.name +
                                   "' defines the empty relation (every "
                                   "branch is contradictory)");
  }
  RegisterView(stmt.name, std::move(compiled));
  return Status::OK();
}

Status ViewCatalog::DefineView(std::string name,
                               const ConjunctiveQuery& query) {
  if (HasView(name)) {
    return Status::AlreadyExists("view '" + name + "' already exists");
  }
  VIEWAUTH_ASSIGN_OR_RETURN(ViewDefinition def, CompileView(name, query));
  std::vector<ViewDefinition> branches;
  branches.push_back(std::move(def));
  RegisterView(std::move(name), std::move(branches));
  return Status::OK();
}

void ViewCatalog::RegisterView(std::string name,
                               std::vector<ViewDefinition> branches) {
  view_order_.push_back(name);
  views_.emplace(name, std::move(branches));
  // A fresh definition carries no grants yet, so no cached entry can
  // depend on it: empty users/scopes.
  RecordMutation(CatalogMutation::Kind::kViewDefined, std::move(name), {},
                 {});
}

Result<ViewDefinition> ViewCatalog::CompileView(
    const std::string& display_name, const ConjunctiveQuery& query) {
  const std::string& name = display_name;

  const int n = query.TotalColumns();
  ColumnUnionFind uf(n);

  // Pass 1: merge classes along column=column equalities.
  for (const CalculusCondition& cond : query.conditions()) {
    if (cond.op == Comparator::kEq && cond.rhs_is_column) {
      uf.Union(query.FlatIndex(cond.lhs), query.FlatIndex(cond.rhs_column));
    }
  }

  // Pass 2: constant pins from column=constant equalities.
  std::map<int, Value> pins;
  for (const CalculusCondition& cond : query.conditions()) {
    if (cond.op != Comparator::kEq || cond.rhs_is_column) continue;
    int root = uf.Find(query.FlatIndex(cond.lhs));
    auto [it, inserted] = pins.emplace(root, cond.rhs_const);
    if (!inserted && !(it->second == cond.rhs_const) &&
        !it->second.Satisfies(Comparator::kEq, cond.rhs_const)) {
      return Status::InvalidArgument(
          "view '" + name + "' defines the empty relation (contradictory "
          "equality constants)");
    }
  }

  // Pass 3: residual (non-equality) conditions, with pinned sides
  // substituted by their constants.
  struct ResidualCondition {
    int lhs_root;
    Comparator op;
    bool rhs_is_root = false;
    int rhs_root = 0;
    Value rhs_const;
  };
  std::vector<ResidualCondition> residual;
  for (const CalculusCondition& cond : query.conditions()) {
    if (cond.op == Comparator::kEq) continue;
    int lhs_root = uf.Find(query.FlatIndex(cond.lhs));
    auto lhs_pin = pins.find(lhs_root);
    if (cond.rhs_is_column) {
      int rhs_root = uf.Find(query.FlatIndex(cond.rhs_column));
      auto rhs_pin = pins.find(rhs_root);
      if (lhs_pin != pins.end() && rhs_pin != pins.end()) {
        if (!lhs_pin->second.Satisfies(cond.op, rhs_pin->second)) {
          return Status::InvalidArgument("view '" + name +
                                         "' defines the empty relation");
        }
        continue;  // subsumed by the substitution
      }
      if (lhs_pin != pins.end()) {
        residual.push_back(ResidualCondition{
            rhs_root, ReverseComparator(cond.op), false, 0, lhs_pin->second});
      } else if (rhs_pin != pins.end()) {
        residual.push_back(ResidualCondition{lhs_root, cond.op, false, 0,
                                             rhs_pin->second});
      } else {
        residual.push_back(
            ResidualCondition{lhs_root, cond.op, true, rhs_root, Value()});
      }
    } else {
      if (lhs_pin != pins.end()) {
        if (!lhs_pin->second.Satisfies(cond.op, cond.rhs_const)) {
          return Status::InvalidArgument("view '" + name +
                                         "' defines the empty relation");
        }
        continue;
      }
      residual.push_back(
          ResidualCondition{lhs_root, cond.op, false, 0, cond.rhs_const});
    }
  }

  // Class properties.
  std::vector<int> occurrences(n, 0);
  for (int c = 0; c < n; ++c) ++occurrences[uf.Find(c)];
  std::set<int> has_residual;
  for (const ResidualCondition& rc : residual) {
    has_residual.insert(rc.lhs_root);
    if (rc.rhs_is_root) has_residual.insert(rc.rhs_root);
  }
  std::set<int> target_roots;
  for (const ColumnRef& target : query.targets()) {
    target_roots.insert(uf.Find(query.FlatIndex(target)));
  }

  // Class domain type: int only when every member column is int.
  auto class_type = [&](int root) {
    bool any = false;
    bool all_int = true;
    bool any_string = false;
    // Walk flat columns to find members.
    int col = 0;
    for (size_t a = 0; a < query.atoms().size(); ++a) {
      const RelationSchema& rel = query.atom_schema(static_cast<int>(a));
      for (int i = 0; i < rel.arity(); ++i, ++col) {
        if (uf.Find(col) != root) continue;
        any = true;
        ValueType t = rel.attribute(i).type;
        if (t != ValueType::kInt64) all_int = false;
        if (t == ValueType::kString) any_string = true;
      }
    }
    VIEWAUTH_CHECK(any) << "class with no member columns";
    if (any_string) return ValueType::kString;
    return all_int ? ValueType::kInt64 : ValueType::kDouble;
  };

  // Variable assignment in left-to-right first-appearance order, matching
  // the paper's x1, x2, ... numbering.
  std::map<int, VarId> var_of_root;
  VarId first_var = next_var_;
  for (int c = 0; c < n; ++c) {
    int root = uf.Find(c);
    if (var_of_root.contains(root) || pins.contains(root)) continue;
    if (occurrences[root] >= 2 || has_residual.contains(root)) {
      var_of_root.emplace(root, next_var_++);
    }
  }

  // COMPARISON content as a constraint store.
  ConstraintSet store;
  std::vector<ComparisonEntry> comparisons;
  for (const auto& [root, var] : var_of_root) {
    store.DeclareTermType(var, class_type(root));
  }
  for (const ResidualCondition& rc : residual) {
    ComparisonEntry entry;
    entry.view = name;
    entry.lhs = var_of_root.at(rc.lhs_root);
    entry.op = rc.op;
    if (rc.rhs_is_root) {
      entry.rhs_is_var = true;
      entry.rhs_var = var_of_root.at(rc.rhs_root);
      store.AddTermTerm(entry.lhs, rc.op, entry.rhs_var);
    } else {
      entry.rhs_const = rc.rhs_const;
      store.AddTermConst(entry.lhs, rc.op, rc.rhs_const);
    }
    comparisons.push_back(std::move(entry));
  }
  if (!store.IsSatisfiable()) {
    // Roll back the variable ids we consumed.
    next_var_ = first_var;
    return Status::InvalidArgument("view '" + name +
                                   "' defines the empty relation "
                                   "(contradictory comparisons)");
  }

  // Build one meta-tuple per membership atom.
  ViewDefinition def;
  def.name = name;
  def.query = query;
  std::vector<AtomId> atom_ids;
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    atom_ids.push_back(next_atom_);
    atom_info_.emplace(next_atom_,
                       AtomInfo{name, query.atoms()[a].relation});
    ++next_atom_;
  }
  int col = 0;
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const RelationSchema& rel = query.atom_schema(static_cast<int>(a));
    MetaTuple tuple;
    for (int i = 0; i < rel.arity(); ++i, ++col) {
      int root = uf.Find(col);
      const bool starred = target_roots.contains(root);
      auto pin = pins.find(root);
      if (pin != pins.end()) {
        tuple.cells().push_back(MetaCell::Const(pin->second, starred));
      } else if (auto var = var_of_root.find(root);
                 var != var_of_root.end()) {
        tuple.cells().push_back(MetaCell::Var(var->second, starred));
      } else {
        tuple.cells().push_back(MetaCell::Blank(starred));
      }
    }
    tuple.constraints() = store;
    tuple.views().insert(name);
    tuple.origin_atoms().insert(atom_ids[a]);
    def.tuples.push_back(std::move(tuple));
    def.tuple_relations.push_back(query.atoms()[a].relation);
    def.relations.insert(query.atoms()[a].relation);
  }

  // var_atoms: which atoms mention each variable; every tuple carries the
  // full map (merging in products is a plain union).
  std::map<VarId, std::set<AtomId>> var_atoms;
  for (size_t a = 0; a < def.tuples.size(); ++a) {
    for (VarId var : def.tuples[a].CellVars()) {
      var_atoms[var].insert(atom_ids[a]);
    }
  }
  for (MetaTuple& tuple : def.tuples) {
    tuple.var_atoms() = var_atoms;
  }
  for (const auto& [root, var] : var_of_root) {
    (void)root;
    def.vars.push_back(var);
  }
  std::sort(def.vars.begin(), def.vars.end());
  def.comparisons = std::move(comparisons);

  return def;
}

Status ViewCatalog::DropView(std::string_view name) {
  auto view = views_.find(name);
  if (view == views_.end()) {
    return Status::NotFound("view '" + std::string(name) +
                            "' does not exist");
  }
  // Dependency capture happens BEFORE the erase: the drop affects
  // exactly the users who held a retrieve grant on this view, over the
  // view's (per-branch) relation scopes.
  std::vector<std::string> affected;
  for (const Grant& grant : permissions_) {
    if (grant.view != name || grant.mode != AccessMode::kRetrieve) continue;
    for (std::string& user : AffectedUsers(grant.user)) {
      if (std::find(affected.begin(), affected.end(), user) ==
          affected.end()) {
        affected.push_back(std::move(user));
      }
    }
  }
  std::vector<std::set<std::string>> scopes =
      affected.empty() ? std::vector<std::set<std::string>>{}
                       : BranchScopes(name);
  views_.erase(view);
  view_order_.erase(
      std::find(view_order_.begin(), view_order_.end(), std::string(name)));
  std::erase_if(permissions_, [&name](const Grant& grant) {
    return grant.view == name;
  });
  std::erase_if(revocations_, [&name](const Grant& grant) {
    return grant.view == name;
  });
  RecordMutation(CatalogMutation::Kind::kViewDropped, std::string(name),
                 std::move(affected), std::move(scopes));
  return Status::OK();
}

std::string_view AccessModeToString(AccessMode mode) {
  switch (mode) {
    case AccessMode::kRetrieve:
      return "retrieve";
    case AccessMode::kInsert:
      return "insert";
    case AccessMode::kDelete:
      return "delete";
    case AccessMode::kModify:
      return "modify";
  }
  return "?";
}

Status ViewCatalog::Permit(std::string_view view, std::string_view user,
                           AccessMode mode) {
  if (!HasView(view)) {
    return Status::NotFound("view '" + std::string(view) +
                            "' does not exist");
  }
  const Grant grant{std::string(user), std::string(view), mode};
  // Re-granting supersedes an earlier deny of the same grant. Clearing
  // the revocation record changes what the static analyzer sees but no
  // retrieval entitlement, so the record carries no scopes.
  if (std::erase(revocations_, grant) > 0) {
    RecordMutation(CatalogMutation::Kind::kGrantAdded, std::string(view),
                   {}, {});
  }
  if (IsPermitted(user, view, mode)) return Status::OK();  // idempotent
  permissions_.push_back(grant);
  RecordMutation(CatalogMutation::Kind::kGrantAdded, std::string(view),
                 AffectedUsers(user),
                 mode == AccessMode::kRetrieve
                     ? BranchScopes(view)
                     : std::vector<std::set<std::string>>{});
  return Status::OK();
}

Status ViewCatalog::Deny(std::string_view view, std::string_view user,
                         AccessMode mode) {
  auto it = std::find(permissions_.begin(), permissions_.end(),
                      Grant{std::string(user), std::string(view), mode});
  if (it == permissions_.end()) {
    return Status::NotFound("user '" + std::string(user) +
                            "' holds no " +
                            std::string(AccessModeToString(mode)) +
                            " permit for view '" + std::string(view) + "'");
  }
  const Grant revoked = *it;
  permissions_.erase(it);
  if (std::find(revocations_.begin(), revocations_.end(), revoked) ==
      revocations_.end()) {
    revocations_.push_back(revoked);
  }
  RecordMutation(CatalogMutation::Kind::kGrantRevoked, std::string(view),
                 AffectedUsers(user),
                 mode == AccessMode::kRetrieve
                     ? BranchScopes(view)
                     : std::vector<std::set<std::string>>{});
  return Status::OK();
}

bool ViewCatalog::HasView(std::string_view name) const {
  return views_.find(name) != views_.end();
}

Result<const ViewDefinition*> ViewCatalog::GetView(
    std::string_view name) const {
  VIEWAUTH_ASSIGN_OR_RETURN(std::vector<const ViewDefinition*> branches,
                            GetViewBranches(name));
  return branches.front();
}

Result<std::vector<const ViewDefinition*>> ViewCatalog::GetViewBranches(
    std::string_view name) const {
  auto view = views_.find(name);
  if (view == views_.end()) {
    return Status::NotFound("view '" + std::string(name) +
                            "' does not exist");
  }
  std::vector<const ViewDefinition*> branches;
  for (const ViewDefinition& def : view->second) branches.push_back(&def);
  return branches;
}

bool ViewCatalog::GrantApplies(const Grant& grant,
                               std::string_view user) const {
  return grant.user == user || IsMember(user, grant.user);
}

std::vector<const ViewDefinition*> ViewCatalog::PermittedViews(
    std::string_view user, AccessMode mode) const {
  std::vector<const ViewDefinition*> result;
  for (const Grant& grant : permissions_) {
    if (grant.mode != mode || !GrantApplies(grant, user)) continue;
    auto view = views_.find(grant.view);
    if (view == views_.end()) continue;
    for (const ViewDefinition& def : view->second) {
      // A user in several granted groups must not receive duplicates.
      if (std::find(result.begin(), result.end(), &def) == result.end()) {
        result.push_back(&def);
      }
    }
  }
  return result;
}

std::vector<std::string> ViewCatalog::PrincipalUsers() const {
  std::vector<std::string> users;
  std::set<std::string> seen;
  auto add = [&](const std::string& user) {
    if (seen.insert(user).second) users.push_back(user);
  };
  for (const Grant& grant : permissions_) {
    auto group = group_members_.find(grant.user);
    if (group == group_members_.end()) {
      add(grant.user);
    } else {
      for (const std::string& member : group->second) add(member);
    }
  }
  return users;
}

bool ViewCatalog::IsPermitted(std::string_view user, std::string_view view,
                              AccessMode mode) const {
  for (const Grant& grant : permissions_) {
    if (grant.view == view && grant.mode == mode &&
        GrantApplies(grant, user)) {
      return true;
    }
  }
  return false;
}

std::vector<std::set<std::string>> ViewCatalog::GroupGrantScopes(
    std::string_view group) const {
  std::vector<std::set<std::string>> scopes;
  for (const Grant& grant : permissions_) {
    if (grant.user != group || grant.mode != AccessMode::kRetrieve) {
      continue;
    }
    for (std::set<std::string>& scope : BranchScopes(grant.view)) {
      scopes.push_back(std::move(scope));
    }
  }
  return scopes;
}

Status ViewCatalog::AddMember(std::string_view user,
                              std::string_view group) {
  if (user == group) {
    return Status::InvalidArgument("a group cannot contain itself");
  }
  const bool inserted =
      group_members_[std::string(group)].insert(std::string(user)).second;
  // Joining a group changes only the joining user's entitlements, over
  // the scopes of the grants the group already holds. A duplicate join
  // changes nothing.
  RecordMutation(CatalogMutation::Kind::kMemberAdded, "",
                 {std::string(user)},
                 inserted ? GroupGrantScopes(group)
                          : std::vector<std::set<std::string>>{});
  return Status::OK();
}

Status ViewCatalog::RemoveMember(std::string_view user,
                                 std::string_view group) {
  auto it = group_members_.find(std::string(group));
  if (it == group_members_.end() ||
      it->second.erase(std::string(user)) == 0) {
    return Status::NotFound("user '" + std::string(user) +
                            "' is not a member of group '" +
                            std::string(group) + "'");
  }
  if (it->second.empty()) group_members_.erase(it);
  RecordMutation(CatalogMutation::Kind::kMemberRemoved, "",
                 {std::string(user)}, GroupGrantScopes(group));
  return Status::OK();
}

bool ViewCatalog::IsMember(std::string_view user,
                           std::string_view group) const {
  auto it = group_members_.find(group);
  return it != group_members_.end() &&
         it->second.contains(std::string(user));
}

std::string ViewCatalog::VarName(VarId var) const {
  if (var >= 1000000) return "w" + std::to_string(var - 1000000 + 1);
  return "x" + std::to_string(var);
}

Result<Relation> ViewCatalog::MaterializeMetaRelation(
    std::string_view relation_name) const {
  VIEWAUTH_ASSIGN_OR_RETURN(const RelationSchema* base,
                            schema_->GetRelation(relation_name));
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"VIEW", ValueType::kString});
  for (const Attribute& attr : base->attributes()) {
    attrs.push_back(Attribute{attr.name, ValueType::kString});
  }
  VIEWAUTH_ASSIGN_OR_RETURN(
      RelationSchema schema,
      RelationSchema::Make(std::string(relation_name) + "'",
                           std::move(attrs)));
  Relation out(std::move(schema));
  auto namer = [this](VarId v) { return VarName(v); };
  for (const std::string& view_name : view_order_) {
    for (const ViewDefinition& def : views_.find(view_name)->second) {
      for (size_t i = 0; i < def.tuples.size(); ++i) {
        if (def.tuple_relations[i] != relation_name) continue;
        std::vector<Value> row;
        row.push_back(Value::String(view_name));
        for (const MetaCell& cell : def.tuples[i].cells()) {
          row.push_back(Value::String(cell.ToString(namer)));
        }
        // Identical meta-tuples of one view (EST stores two equal
        // EMPLOYEE' rows) collapse under set semantics here; the compiled
        // ViewDefinition keeps them distinct, and display code that needs
        // the duplicated rows (the Figure 1 reproduction) prints from the
        // definitions.
        out.InsertUnchecked(Tuple(std::move(row)));
      }
    }
  }
  return out;
}

Relation ViewCatalog::MaterializeComparison() const {
  RelationSchema schema =
      RelationSchema::Make("COMPARISON",
                           {Attribute{"VIEW", ValueType::kString},
                            Attribute{"X", ValueType::kString},
                            Attribute{"COMPARE", ValueType::kString},
                            Attribute{"Y", ValueType::kString}})
          .value();
  Relation out(std::move(schema));
  for (const std::string& view_name : view_order_) {
    for (const ViewDefinition& def : views_.find(view_name)->second) {
      for (const ComparisonEntry& entry : def.comparisons) {
        std::string y = entry.rhs_is_var
                            ? VarName(entry.rhs_var)
                            : entry.rhs_const.ToDisplayString(false);
        out.InsertUnchecked(Tuple({Value::String(entry.view),
                                   Value::String(VarName(entry.lhs)),
                                   Value::String(std::string(
                                       ComparatorToString(entry.op))),
                                   Value::String(std::move(y))}));
      }
    }
  }
  return out;
}

void ViewCatalog::RecordMutation(
    CatalogMutation::Kind kind, std::string view,
    std::vector<std::string> users,
    std::vector<std::set<std::string>> scopes) {
  CatalogMutation record;
  record.seq = ++catalog_version_;
  record.kind = kind;
  record.view = std::move(view);
  record.users = std::move(users);
  record.scopes = std::move(scopes);
  journal_.push_back(std::move(record));
  while (journal_.size() > kJournalCapacity) journal_.pop_front();
}

std::vector<std::string> ViewCatalog::AffectedUsers(
    std::string_view grantee) const {
  std::vector<std::string> users;
  users.emplace_back(grantee);
  auto group = group_members_.find(grantee);
  if (group != group_members_.end()) {
    users.insert(users.end(), group->second.begin(), group->second.end());
  }
  return users;
}

std::vector<std::set<std::string>> ViewCatalog::BranchScopes(
    std::string_view view) const {
  std::vector<std::set<std::string>> scopes;
  auto it = views_.find(view);
  if (it == views_.end()) return scopes;
  for (const ViewDefinition& def : it->second) {
    scopes.push_back(def.relations);
  }
  return scopes;
}

bool ViewCatalog::MutationsSince(long long since,
                                 std::vector<CatalogMutation>* out) const {
  if (since >= catalog_version_) return true;  // already caught up
  // The journal covers (catalog_version_ - journal_.size(),
  // catalog_version_]; a reader synced before that window has lost
  // records.
  const long long oldest_covered =
      catalog_version_ - static_cast<long long>(journal_.size());
  if (since < oldest_covered) return false;
  // Sequence numbers are contiguous: record seq lives at index
  // seq - oldest_covered - 1.
  out->insert(out->end(), journal_.begin() + (since - oldest_covered),
              journal_.end());
  return true;
}

std::vector<std::string> ViewCatalog::ViewsReferencingRelation(
    std::string_view relation) const {
  const std::string base(relation);
  std::vector<std::string> views;
  for (const std::string& name : view_order_) {
    const std::vector<ViewDefinition>& branches = views_.find(name)->second;
    if (std::any_of(branches.begin(), branches.end(),
                    [&base](const ViewDefinition& def) {
                      return def.relations.contains(base);
                    })) {
      views.push_back(name);
    }
  }
  return views;
}

Relation ViewCatalog::MaterializePermission() const {
  RelationSchema schema =
      RelationSchema::Make("PERMISSION",
                           {Attribute{"USER", ValueType::kString},
                            Attribute{"VIEW", ValueType::kString}})
          .value();
  Relation out(std::move(schema));
  // The paper's PERMISSION relation records retrieval grants; update-mode
  // grants live alongside but are not part of Figure 1.
  for (const Grant& grant : permissions_) {
    if (grant.mode != AccessMode::kRetrieve) continue;
    out.InsertUnchecked(
        Tuple({Value::String(grant.user), Value::String(grant.view)}));
  }
  return out;
}

}  // namespace viewauth
