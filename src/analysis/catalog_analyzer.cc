#include "analysis/catalog_analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "analysis/view_implication.h"
#include "common/str_util.h"
#include "meta/meta_tuple.h"

namespace viewauth {

namespace {

// The four grant modes, for per-mode permission analysis.
constexpr AccessMode kModes[] = {AccessMode::kRetrieve, AccessMode::kInsert,
                                 AccessMode::kDelete, AccessMode::kModify};

std::string GrantLocation(const ViewCatalog::Grant& grant) {
  std::string out = "permit " + grant.view + " to " + grant.user;
  if (grant.mode != AccessMode::kRetrieve) {
    out += " for " + std::string(AccessModeToString(grant.mode));
  }
  return out;
}

std::string RenderComparison(const ComparisonEntry& entry) {
  std::string out = DefaultVarName(entry.lhs);
  out += " ";
  out += ComparatorToString(entry.op);
  out += " ";
  if (entry.rhs_is_var) {
    out += DefaultVarName(entry.rhs_var);
  } else {
    out += entry.rhs_const.ToDisplayString(/*commas=*/false);
  }
  return out;
}

}  // namespace

std::string DenyLocation(const ViewCatalog::Grant& revocation) {
  std::string out = "deny " + revocation.view + " to " + revocation.user;
  if (revocation.mode != AccessMode::kRetrieve) {
    out += " for " + std::string(AccessModeToString(revocation.mode));
  }
  return out;
}

void CheckViewSatisfiability(const ViewDefinition& def,
                             const std::string& location,
                             long long enumeration_limit,
                             std::vector<Diagnostic>* out) {
  if (def.tuples.empty()) return;
  const ConstraintSet& store = def.tuples.front().constraints();
  if (!store.IsSatisfiable()) {
    out->push_back(Diagnostic{
        Severity::kError, "unsat-view", location,
        "constraint set is contradictory: the view defines the empty "
        "relation, so every permit of it grants nothing"});
    return;
  }
  if (store.DeepCheckSatisfiable(enumeration_limit) == Truth::kFalse) {
    out->push_back(Diagnostic{
        Severity::kError, "unsat-view", location,
        "constraint set (" + store.ToString() +
            ") is unsatisfiable under finite-domain enumeration: the view "
            "defines the empty relation, so every permit of it grants "
            "nothing"});
  }
}

void CheckVacuousComparisons(const ViewDefinition& def,
                             const std::string& location,
                             std::vector<Diagnostic>* out) {
  std::set<VarId> bound;
  for (const MetaTuple& tuple : def.tuples) {
    for (VarId var : tuple.CellVars()) bound.insert(var);
  }
  for (const ComparisonEntry& entry : def.comparisons) {
    VarId unbound = -1;
    if (!bound.contains(entry.lhs)) {
      unbound = entry.lhs;
    } else if (entry.rhs_is_var && !bound.contains(entry.rhs_var)) {
      unbound = entry.rhs_var;
    }
    if (unbound < 0) continue;
    out->push_back(Diagnostic{
        Severity::kWarning, "vacuous-comparison", location,
        "COMPARISON row (" + RenderComparison(entry) +
            ") constrains variable " + DefaultVarName(unbound) +
            ", which no meta-tuple of the view binds; the row can never "
            "take effect"});
  }
}

void CheckSchemaDrift(const ViewDefinition& def, const DatabaseSchema& schema,
                      const std::string& location,
                      std::vector<Diagnostic>* out) {
  std::set<std::string> reported;
  for (size_t a = 0; a < def.tuple_relations.size(); ++a) {
    const std::string& relation = def.tuple_relations[a];
    if (reported.contains(relation)) continue;
    Result<const RelationSchema*> current = schema.GetRelation(relation);
    if (!current.ok()) {
      reported.insert(relation);
      out->push_back(Diagnostic{
          Severity::kError, "schema-drift", location,
          "references relation " + relation +
              ", which no longer exists in the schema; retrieves through "
              "this view would misalign"});
      continue;
    }
    const RelationSchema& compiled = def.query.atom_schema(static_cast<int>(a));
    const RelationSchema& live = **current;
    if (live.arity() != compiled.arity()) {
      reported.insert(relation);
      out->push_back(Diagnostic{
          Severity::kError, "schema-drift", location,
          "relation " + relation + " now has " +
              std::to_string(live.arity()) + " attribute(s); the view was "
              "compiled against " + std::to_string(compiled.arity())});
      continue;
    }
    for (int i = 0; i < compiled.arity(); ++i) {
      const Attribute& was = compiled.attribute(i);
      const Attribute& now = live.attribute(i);
      if (was == now) continue;
      reported.insert(relation);
      out->push_back(Diagnostic{
          Severity::kError, "schema-drift", location,
          "attribute " + std::to_string(i + 1) + " of relation " + relation +
              " is now " + now.name + " " +
              std::string(ValueTypeToString(now.type)) +
              "; the view was compiled against " + was.name + " " +
              std::string(ValueTypeToString(was.type))});
      break;
    }
  }
}

void CatalogAnalyzer::CheckViews(const AnalysisOptions& options,
                                 AnalysisReport* report) const {
  for (const std::string& name : catalog_->view_names()) {
    Result<std::vector<const ViewDefinition*>> branches =
        catalog_->GetViewBranches(name);
    if (!branches.ok()) continue;
    const bool disjunctive = branches->size() > 1;
    for (size_t b = 0; b < branches->size(); ++b) {
      std::string location = "view " + name;
      if (disjunctive) {
        location += " (branch " + std::to_string(b + 1) + ")";
      }
      CheckViewSatisfiability(*(*branches)[b], location,
                              options.unsat_enumeration_limit,
                              &report->diagnostics());
      CheckVacuousComparisons(*(*branches)[b], location,
                              &report->diagnostics());
      CheckSchemaDrift(*(*branches)[b], catalog_->schema(), location,
                       &report->diagnostics());
    }
  }
}

void CatalogAnalyzer::CheckSubsumedPermits(AnalysisReport* report) const {
  // One diagnostic per ordered grant pair, however many users the pair
  // applies to (a group pair would otherwise repeat per member); the
  // witness user is named when grants reach the user through groups.
  std::set<std::pair<const ViewCatalog::Grant*, const ViewCatalog::Grant*>>
      emitted;
  for (const std::string& user : catalog_->PrincipalUsers()) {
    for (AccessMode mode : kModes) {
      struct Applied {
        const ViewCatalog::Grant* grant;
        std::vector<const ViewDefinition*> branches;
      };
      std::vector<Applied> applied;
      for (const ViewCatalog::Grant& grant : catalog_->grants()) {
        if (grant.mode != mode || !catalog_->GrantApplies(grant, user)) {
          continue;
        }
        Result<std::vector<const ViewDefinition*>> branches =
            catalog_->GetViewBranches(grant.view);
        if (!branches.ok()) continue;
        applied.push_back(Applied{&grant, std::move(*branches)});
      }
      if (applied.size() < 2) continue;
      const size_t n = applied.size();
      // subsumes[i][j]: grant i's view delivers everything grant j's does.
      std::vector<std::vector<bool>> subsumes(n, std::vector<bool>(n, false));
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          subsumes[i][j] =
              ViewSubsumes(applied[i].branches, applied[j].branches);
        }
      }
      for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < n; ++i) {
          if (i == j || !subsumes[i][j]) continue;
          // Of two equivalent grants, only the later one is redundant.
          if (i > j && subsumes[j][i]) continue;
          if (!emitted.emplace(applied[i].grant, applied[j].grant).second) {
            break;
          }
          std::string message =
              "redundant: every row and column it grants is already "
              "granted by '" + GrantLocation(*applied[i].grant) + "'";
          if (applied[j].grant->user != user ||
              applied[i].grant->user != user) {
            message += " (both apply to user " + user + ")";
          }
          report->Add(Severity::kWarning, "subsumed-permit",
                      GrantLocation(*applied[j].grant), std::move(message));
          break;
        }
      }
    }
  }
}

void CatalogAnalyzer::CheckShadowedDenies(AnalysisReport* report) const {
  for (const ViewCatalog::Grant& revocation : catalog_->revocations()) {
    if (!catalog_->HasView(revocation.view)) continue;
    // Direct shadow: the user still holds the very view, through a group
    // grant or another applicable grant.
    if (catalog_->IsPermitted(revocation.user, revocation.view,
                              revocation.mode)) {
      std::string through;
      for (const ViewCatalog::Grant& grant : catalog_->grants()) {
        if (grant.view == revocation.view && grant.mode == revocation.mode &&
            catalog_->GrantApplies(grant, revocation.user)) {
          through = GrantLocation(grant);
          break;
        }
      }
      report->Add(Severity::kError, "shadowed-deny", DenyLocation(revocation),
                  "ineffective: user " + revocation.user +
                      " still holds the view through '" + through + "'");
      continue;
    }
    // Implication shadow: a remaining permitted view delivers everything
    // the denied view did.
    Result<std::vector<const ViewDefinition*>> denied =
        catalog_->GetViewBranches(revocation.view);
    if (!denied.ok()) continue;
    for (const ViewCatalog::Grant& grant : catalog_->grants()) {
      if (grant.mode != revocation.mode || grant.view == revocation.view ||
          !catalog_->GrantApplies(grant, revocation.user)) {
        continue;
      }
      Result<std::vector<const ViewDefinition*>> remaining =
          catalog_->GetViewBranches(grant.view);
      if (!remaining.ok()) continue;
      if (ViewSubsumes(*remaining, *denied)) {
        report->Add(
            Severity::kError, "shadowed-deny", DenyLocation(revocation),
            "ineffective: '" + GrantLocation(grant) + "' still grants "
                "everything view " + revocation.view + " delivered");
        break;
      }
    }
  }
}

void CatalogAnalyzer::CheckCoverage(const AnalysisOptions& options,
                                    AnalysisReport* report) const {
  for (const std::string& user : catalog_->PrincipalUsers()) {
    std::vector<const ViewDefinition*> views =
        catalog_->PermittedViews(user, AccessMode::kRetrieve);
    if (views.empty()) continue;
    // Relation -> (attribute names in scheme order, reachable indices).
    std::map<std::string, std::pair<std::vector<std::string>, std::set<int>>>
        reach;
    std::vector<std::string> order;
    for (const ViewDefinition* def : views) {
      for (size_t a = 0; a < def->tuples.size(); ++a) {
        const std::string& relation = def->tuple_relations[a];
        const RelationSchema& schema =
            def->query.atom_schema(static_cast<int>(a));
        auto [it, inserted] = reach.try_emplace(relation);
        if (inserted) {
          order.push_back(relation);
          for (const Attribute& attr : schema.attributes()) {
            it->second.first.push_back(attr.name);
          }
        }
        const MetaTuple& tuple = def->tuples[a];
        for (int i = 0; i < tuple.arity(); ++i) {
          if (tuple.cells()[static_cast<size_t>(i)].projected) {
            it->second.second.insert(i);
          }
        }
      }
    }
    for (const std::string& relation : order) {
      const auto& [names, reachable] = reach.at(relation);
      CoverageEntry entry;
      entry.user = user;
      entry.relation = relation;
      for (int index : reachable) {
        if (index < static_cast<int>(names.size())) {
          entry.columns.push_back(names[static_cast<size_t>(index)]);
        }
      }
      if (entry.columns.empty()) {
        report->Add(
            Severity::kNote, "coverage-gap", "user " + user,
            "can name relation " + relation + " through permitted views, "
                "but no permitted view delivers any of its columns");
      }
      if (options.include_coverage) {
        report->coverage().push_back(std::move(entry));
      }
    }
  }
}

AnalysisReport CatalogAnalyzer::Analyze(const AnalysisOptions& options) const {
  AnalysisReport report;
  CheckViews(options, &report);
  CheckSubsumedPermits(&report);
  CheckShadowedDenies(&report);
  CheckCoverage(options, &report);
  return report;
}

std::vector<Diagnostic> CatalogAnalyzer::AnalyzeGrant(
    const std::string& view, const std::string& user,
    const AnalysisOptions& options) const {
  AnalysisReport report = Analyze(options);
  std::vector<Diagnostic> relevant;
  auto mentions = [](const Diagnostic& diagnostic, const std::string& name) {
    return !name.empty() &&
           (diagnostic.location.find(name) != std::string::npos ||
            diagnostic.message.find(name) != std::string::npos);
  };
  for (Diagnostic& diagnostic : report.diagnostics()) {
    if (mentions(diagnostic, view) || mentions(diagnostic, user)) {
      relevant.push_back(std::move(diagnostic));
    }
  }
  return relevant;
}

}  // namespace viewauth
