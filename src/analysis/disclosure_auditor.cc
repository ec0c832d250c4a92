#include "analysis/disclosure_auditor.h"

#include <algorithm>
#include <map>
#include <utility>

#include "analysis/catalog_analyzer.h"
#include "common/str_util.h"

namespace viewauth {

namespace {

// Does `general` provably disclose at least `specific`?
bool FactCovers(const DisclosureFact& general,
                const DisclosureFact& specific) {
  if (general.relation != specific.relation) return false;
  for (int column : specific.columns) {
    if (!general.columns.contains(column)) return false;
  }
  return specific.region.ImpliesAll(general.region) == Truth::kTrue;
}

// Merged source list, first-use order, deduped. Empty when the merge
// adds no view beyond `a` (the composition cannot carry new authority).
std::vector<std::string> MergeSources(const std::vector<std::string>& a,
                                      const std::vector<std::string>& b) {
  std::vector<std::string> merged = a;
  bool grew = false;
  for (const std::string& source : b) {
    if (std::find(merged.begin(), merged.end(), source) == merged.end()) {
      merged.push_back(source);
      grew = true;
    }
  }
  if (!grew) return {};
  return merged;
}

}  // namespace

std::string DisclosureFact::SourceLabel() const {
  return Join(sources, "+");
}

std::string RenderFact(const ViewCatalog& catalog,
                       const DisclosureFact& fact) {
  Result<const RelationSchema*> schema =
      catalog.schema().GetRelation(fact.relation);
  auto column_name = [&](int column) -> std::string {
    if (schema.ok() && column >= 0 && column < (*schema)->arity()) {
      return (*schema)->attribute(column).name;
    }
    return "#" + std::to_string(column + 1);
  };
  std::vector<std::string> names;
  names.reserve(fact.columns.size());
  for (int column : fact.columns) names.push_back(column_name(column));
  std::string out = fact.relation + "(" + Join(names, ", ") + ")";
  std::vector<std::string> atoms;
  for (const ConstraintAtom& atom : fact.region.ExportAtoms()) {
    atoms.push_back(atom.ToString(column_name));
  }
  if (!atoms.empty()) out += " where " + Join(atoms, " and ");
  return out;
}

std::vector<std::string> DisclosureAuditor::PermittedViewNames(
    const std::string& user) const {
  std::vector<std::string> names;
  for (const ViewCatalog::Grant& grant : catalog_->grants()) {
    if (grant.mode != AccessMode::kRetrieve ||
        !catalog_->GrantApplies(grant, user)) {
      continue;
    }
    if (std::find(names.begin(), names.end(), grant.view) == names.end()) {
      names.push_back(grant.view);
    }
  }
  return names;
}

UserClosure DisclosureAuditor::ClosureOfViews(
    const std::string& user, const std::vector<std::string>& view_names,
    const DisclosureAuditOptions& options) const {
  UserClosure closure;
  closure.user = user;
  std::vector<DisclosureFact>& facts = closure.facts;

  // Base facts: each branch's per-atom disclosures. A covered fact is
  // skipped only when the covering fact is at least as composable
  // (exact), so dropping it cannot shrink the closure.
  auto add_base = [&](DisclosureFact fact) {
    if (fact.columns.empty()) return;
    for (const DisclosureFact& existing : facts) {
      if ((existing.region_exact || !fact.region_exact) &&
          FactCovers(existing, fact)) {
        return;
      }
    }
    facts.push_back(std::move(fact));
  };
  for (const std::string& name : view_names) {
    Result<std::vector<const ViewDefinition*>> branches =
        catalog_->GetViewBranches(name);
    if (!branches.ok()) continue;
    for (const ViewDefinition* branch : *branches) {
      for (AtomDisclosure& atom : AtomDisclosuresOf(*branch)) {
        DisclosureFact fact;
        fact.relation = std::move(atom.relation);
        fact.columns = std::move(atom.columns);
        fact.region = std::move(atom.region);
        fact.region_exact = atom.region_exact;
        fact.sources = {name};
        add_base(std::move(fact));
      }
    }
  }
  closure.base_count = static_cast<int>(facts.size());

  // Fixpoint composition. Joining two result sets on a relation's full
  // key tuple-identifies rows, so the combination delivers the union of
  // the columns over the conjunction of the regions. Only region-exact
  // facts compose: an approximate region cannot prove the join is
  // answerable from what the user actually received.
  int attempts = 0;
  for (size_t i = 1; i < facts.size(); ++i) {
    if (closure.truncated) break;
    for (size_t j = 0; j < i; ++j) {
      if (attempts >= options.max_compositions ||
          static_cast<int>(facts.size()) >= options.max_closure_facts) {
        closure.truncated = true;
        break;
      }
      // Indexing (not range-for): the vector grows during iteration.
      const DisclosureFact& a = facts[i];
      const DisclosureFact& b = facts[j];
      if (!a.region_exact || !b.region_exact) continue;
      if (a.relation != b.relation) continue;
      Result<const RelationSchema*> schema =
          catalog_->schema().GetRelation(a.relation);
      if (!schema.ok() || !(*schema)->has_key()) continue;
      bool key_shared = true;
      for (int key_column : (*schema)->key()) {
        if (!a.columns.contains(key_column) ||
            !b.columns.contains(key_column)) {
          key_shared = false;
          break;
        }
      }
      if (!key_shared) continue;
      std::vector<std::string> sources = MergeSources(a.sources, b.sources);
      if (sources.empty() ||
          static_cast<int>(sources.size()) > options.max_composition_depth) {
        continue;
      }
      DisclosureFact composed;
      composed.relation = a.relation;
      composed.columns = a.columns;
      composed.columns.insert(b.columns.begin(), b.columns.end());
      // Column recombination is the point; a union that is no wider than
      // a factor is already covered by that factor.
      if (composed.columns == a.columns || composed.columns == b.columns) {
        continue;
      }
      ++attempts;
      composed.region = a.region;
      composed.region.AddAll(b.region);
      if (!composed.region.IsSatisfiable() ||
          composed.region.DeepCheckSatisfiable(
              options.unsat_enumeration_limit) == Truth::kFalse) {
        continue;  // the join is provably empty: nothing is disclosed
      }
      composed.sources = std::move(sources);
      bool covered = false;
      for (const DisclosureFact& existing : facts) {
        if (existing.region_exact && FactCovers(existing, composed)) {
          covered = true;
          break;
        }
      }
      if (!covered) facts.push_back(std::move(composed));
    }
  }
  return closure;
}

UserClosure DisclosureAuditor::ClosureFor(
    const std::string& user, const DisclosureAuditOptions& options) const {
  return ClosureOfViews(user, PermittedViewNames(user), options);
}

std::vector<Diagnostic> DisclosureAuditor::ChannelFindings(
    const UserClosure& closure, const std::string& only_view) const {
  std::vector<Diagnostic> out;
  // One finding per (relation, column set): several compositions can
  // reach the same recombination.
  std::set<std::pair<std::string, std::set<int>>> reported;
  for (size_t i = static_cast<size_t>(closure.base_count);
       i < closure.facts.size(); ++i) {
    const DisclosureFact& fact = closure.facts[i];
    if (!only_view.empty() &&
        std::find(fact.sources.begin(), fact.sources.end(), only_view) ==
            fact.sources.end()) {
      continue;
    }
    bool covered = false;
    for (int b = 0; b < closure.base_count; ++b) {
      if (FactCovers(closure.facts[static_cast<size_t>(b)], fact)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    if (!reported.emplace(fact.relation, fact.columns).second) continue;
    Diagnostic d;
    d.severity = Severity::kError;
    d.check = "inference-channel";
    d.location = "user " + closure.user;
    d.view = fact.SourceLabel();
    d.user = closure.user;
    d.message = "joining the results of " + Join(fact.sources, " and ") +
                " on the key of " + fact.relation + " reveals " +
                RenderFact(*catalog_, fact) +
                ", which no single permitted view delivers";
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<DisclosureFact> DisclosureAuditor::MarginalDisclosure(
    const std::string& view, const std::string& user,
    const DisclosureAuditOptions& options) const {
  std::vector<std::string> all = PermittedViewNames(user);
  if (std::find(all.begin(), all.end(), view) == all.end()) return {};
  std::vector<std::string> without;
  for (const std::string& name : all) {
    if (name != view) without.push_back(name);
  }
  UserClosure with_grant = ClosureOfViews(user, all, options);
  UserClosure remainder = ClosureOfViews(user, without, options);
  std::vector<DisclosureFact> marginal;
  for (DisclosureFact& fact : with_grant.facts) {
    bool covered = false;
    for (const DisclosureFact& existing : remainder.facts) {
      if (FactCovers(existing, fact)) {
        covered = true;
        break;
      }
    }
    if (!covered) marginal.push_back(std::move(fact));
  }
  return marginal;
}

std::optional<Diagnostic> DisclosureAuditor::CheckDenyBypass(
    const ViewCatalog::Grant& revocation,
    const DisclosureAuditOptions& options) const {
  if (revocation.mode != AccessMode::kRetrieve) return std::nullopt;
  if (!catalog_->HasView(revocation.view)) return std::nullopt;
  // The pairwise shadowed-deny check already covers a deny the user
  // dodges through a surviving grant of the very view, or through one
  // view that single-handedly implies it; report only what it misses.
  if (catalog_->IsPermitted(revocation.user, revocation.view,
                            revocation.mode)) {
    return std::nullopt;
  }
  Result<std::vector<const ViewDefinition*>> denied =
      catalog_->GetViewBranches(revocation.view);
  if (!denied.ok()) return std::nullopt;
  for (const ViewCatalog::Grant& grant : catalog_->grants()) {
    if (grant.mode != revocation.mode || grant.view == revocation.view ||
        !catalog_->GrantApplies(grant, revocation.user)) {
      continue;
    }
    Result<std::vector<const ViewDefinition*>> remaining =
        catalog_->GetViewBranches(grant.view);
    if (remaining.ok() && ViewSubsumes(*remaining, *denied)) {
      return std::nullopt;
    }
  }

  UserClosure closure = ClosureFor(revocation.user, options);
  std::vector<std::string> witnesses;
  auto add_witness = [&](const std::string& label) {
    if (std::find(witnesses.begin(), witnesses.end(), label) ==
        witnesses.end()) {
      witnesses.push_back(label);
    }
  };
  bool composed_cover = false;
  for (const ViewDefinition* branch : *denied) {
    std::vector<AtomDisclosure> atoms = AtomDisclosuresOf(*branch);
    if (atoms.empty()) return std::nullopt;  // ill-formed: not provable
    for (const AtomDisclosure& atom : atoms) {
      // Reconstructing the branch's delivery needs the projected columns
      // plus the join columns (to re-run the branch's joins).
      DisclosureFact needed;
      needed.relation = atom.relation;
      needed.columns = atom.columns;
      needed.columns.insert(atom.join_columns.begin(),
                            atom.join_columns.end());
      if (needed.columns.empty()) continue;
      needed.region = atom.region;
      const DisclosureFact* cover = nullptr;
      for (const DisclosureFact& fact : closure.facts) {
        if (fact.region_exact && FactCovers(fact, needed)) {
          cover = &fact;
          break;
        }
      }
      if (cover == nullptr) return std::nullopt;
      if (cover->depth() > 1) composed_cover = true;
      add_witness(cover->SourceLabel());
    }
  }
  // Covering every atom with single-view facts from *different* views is
  // still a combination the pairwise check cannot see; only the case of
  // one view covering everything was excluded above via ViewSubsumes.
  (void)composed_cover;
  Diagnostic d;
  d.severity = Severity::kError;
  d.check = "deny-bypass";
  d.location = DenyLocation(revocation);
  d.view = revocation.view;
  d.user = revocation.user;
  d.message =
      "vacuous: the surviving permits' closure reconstructs everything "
      "the deny hides (via " +
      Join(witnesses, ", ") + ")";
  return d;
}

void DisclosureAuditor::AuditDrift(const DisclosureAuditOptions& options,
                                   AnalysisReport* report) const {
  std::vector<CatalogMutation> records;
  if (!catalog_->MutationsSince(options.drift_since_seq, &records)) {
    Diagnostic d;
    d.severity = Severity::kNote;
    d.check = "disclosure-drift";
    d.location = "catalog journal";
    d.message = "journal no longer reaches back to version " +
                std::to_string(options.drift_since_seq) +
                "; differential audit unavailable (re-baseline)";
    report->Add(std::move(d));
    return;
  }
  for (const CatalogMutation& record : records) {
    // Only retrieve-mode permits change the disclosure closure; they are
    // exactly the kGrantAdded records that carry relation scopes.
    if (record.kind != CatalogMutation::Kind::kGrantAdded ||
        record.scopes.empty()) {
      continue;
    }
    for (const std::string& user : record.users) {
      std::vector<DisclosureFact> marginal =
          MarginalDisclosure(record.view, user, options);
      const std::string location = "permit " + record.view + " to " + user +
                                   " (version " +
                                   std::to_string(record.seq) + ")";
      int emitted = 0;
      for (const DisclosureFact& fact : marginal) {
        if (emitted >= options.max_drift_facts_per_grant) break;
        ++emitted;
        Diagnostic d;
        d.severity = Severity::kNote;
        d.check = "disclosure-drift";
        d.location = location;
        d.view = record.view;
        d.user = user;
        d.message = "added " + RenderFact(*catalog_, fact);
        if (fact.depth() > 1) {
          d.message += " (in composition " + fact.SourceLabel() + ")";
        }
        report->Add(std::move(d));
      }
      if (static_cast<int>(marginal.size()) > emitted) {
        Diagnostic d;
        d.severity = Severity::kNote;
        d.check = "disclosure-drift";
        d.location = location;
        d.view = record.view;
        d.user = user;
        d.message = "... and " +
                    std::to_string(marginal.size() - emitted) +
                    " more closure fact(s)";
        report->Add(std::move(d));
      }
    }
  }
}

AnalysisReport DisclosureAuditor::Audit(
    const DisclosureAuditOptions& options) const {
  AnalysisReport report;
  for (const std::string& user : catalog_->PrincipalUsers()) {
    UserClosure closure = ClosureFor(user, options);
    for (Diagnostic& d : ChannelFindings(closure)) {
      report.Add(std::move(d));
    }
    if (closure.truncated) {
      Diagnostic d;
      d.severity = Severity::kNote;
      d.check = "audit-cutoff";
      d.location = "user " + user;
      d.user = user;
      d.message =
          "disclosure closure truncated at the enumeration cutoff (" +
          std::to_string(options.max_closure_facts) + " facts / " +
          std::to_string(options.max_compositions) +
          " compositions); findings are a sound under-approximation";
      report.Add(std::move(d));
    }
  }
  for (const ViewCatalog::Grant& revocation : catalog_->revocations()) {
    if (std::optional<Diagnostic> d = CheckDenyBypass(revocation, options)) {
      report.Add(std::move(*d));
    }
  }
  if (options.drift_since_seq >= 0) {
    AuditDrift(options, &report);
  }
  std::sort(report.diagnostics().begin(), report.diagnostics().end(),
            DiagnosticOutputLess);
  return report;
}

}  // namespace viewauth
