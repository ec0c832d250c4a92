// Static analysis of an authorization catalog (viewauth-lint).
//
// Motro's model makes permissions knowledge: a catalog of view
// definitions, PERMISSION/COMPARISON meta-relations and group
// memberships. That knowledge can be statically wrong long before any
// query runs — a permit over an unsatisfiable view grants nothing, a
// permit implied by a broader one is dead weight in every
// meta-evaluation, a deny whose effect is re-granted elsewhere silently
// fails its intent. CatalogAnalyzer runs six checks over the catalog
// without touching stored data, reusing the Section 4.2 decision
// procedures (src/predicate) for the semantic ones:
//
//   unsat-view          (error)   a view's constraint set is
//                                 contradictory under deep (enumerating)
//                                 analysis: the view defines the empty
//                                 relation and every permit of it is dead
//   subsumed-permit     (warning) for some user — directly or via a
//                                 group — one permitted view is provably
//                                 implied by another (projection
//                                 containment + constraint implication)
//   shadowed-deny       (error)   a recorded deny whose effect is still
//                                 fully granted: the user retains the
//                                 view through a group grant, or a
//                                 remaining permitted view implies it
//   coverage-gap        (note)    a user can name a relation (a
//                                 permitted view is defined over it) but
//                                 no permitted view delivers any of its
//                                 columns; the full user x relation ->
//                                 columns map lands in the report
//   vacuous-comparison  (warning) a COMPARISON row constrains a variable
//                                 no meta-tuple of the view binds
//   schema-drift        (error)   a view references a relation or column
//                                 that was dropped or re-typed after the
//                                 view was compiled (views capture their
//                                 schemas by value, so a direct schema
//                                 drop leaves them silently misaligned)
//
// The per-definition checks are exposed as free functions so tests can
// drive them against hand-built definitions and so the engine can warn
// narrowly at permit/deny time.

#ifndef VIEWAUTH_ANALYSIS_CATALOG_ANALYZER_H_
#define VIEWAUTH_ANALYSIS_CATALOG_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "meta/view_store.h"
#include "schema/schema.h"

namespace viewauth {

struct AnalysisOptions {
  // Assignment cap for the deep satisfiability check
  // (ConstraintSet::DeepCheckSatisfiable); beyond it a view is presumed
  // satisfiable.
  long long unsat_enumeration_limit = 100000;
  // Populate the projection-coverage table in the report (the
  // coverage-gap diagnostics are always produced).
  bool include_coverage = true;
};

// Per-definition checks (no catalog required). `location` names the
// entity in diagnostics, e.g. "view BAD" or "view BAD (branch 2)".
void CheckViewSatisfiability(const ViewDefinition& def,
                             const std::string& location,
                             long long enumeration_limit,
                             std::vector<Diagnostic>* out);
void CheckVacuousComparisons(const ViewDefinition& def,
                             const std::string& location,
                             std::vector<Diagnostic>* out);
void CheckSchemaDrift(const ViewDefinition& def, const DatabaseSchema& schema,
                      const std::string& location,
                      std::vector<Diagnostic>* out);

// The diagnostic location of a recorded deny, in the surface language
// ("deny SAE to Brown", "deny W to Brown for insert").
std::string DenyLocation(const ViewCatalog::Grant& revocation);

class CatalogAnalyzer {
 public:
  explicit CatalogAnalyzer(const ViewCatalog* catalog) : catalog_(catalog) {}

  // Runs every check over the whole catalog.
  AnalysisReport Analyze(const AnalysisOptions& options = {}) const;

  // The subset of findings anchored to `view` or `user` (either may be
  // empty), for targeted warnings at permit/deny time.
  std::vector<Diagnostic> AnalyzeGrant(const std::string& view,
                                       const std::string& user,
                                       const AnalysisOptions& options = {}) const;

 private:
  void CheckViews(const AnalysisOptions& options, AnalysisReport* report) const;
  void CheckSubsumedPermits(AnalysisReport* report) const;
  void CheckShadowedDenies(AnalysisReport* report) const;
  void CheckCoverage(const AnalysisOptions& options,
                     AnalysisReport* report) const;

  const ViewCatalog* catalog_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_ANALYSIS_CATALOG_ANALYZER_H_
