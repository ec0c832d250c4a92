// AuditLog: a record of every authorization decision the engine makes.
//
// Access-control systems live and die by their audit trails; the paper's
// model makes particularly good audit material because each decision
// carries a precise description of the delivered portion (the inferred
// permit statements). The log stores one entry per decision and can
// materialize itself as a relation, so administrators inspect it with
// the same retrieve machinery (under their own permissions).
//
// The log synchronizes itself: concurrent sessions append from retrieves
// (outside any engine lock) and from guarded writes (under the engine's
// state mutex), and readers get copies, never references into the log.

#ifndef VIEWAUTH_AUTHZ_AUDIT_LOG_H_
#define VIEWAUTH_AUTHZ_AUDIT_LOG_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace viewauth {

class RenderedPermits;

enum class AuditOutcome {
  kFullAccess = 0,
  kPartial = 1,
  kDenied = 2,
  kInsertAllowed = 3,
  kInsertDenied = 4,
  kDeleteApplied = 5,
  kModifyApplied = 6,
  kError = 7,
};

std::string_view AuditOutcomeToString(AuditOutcome outcome);

struct AuditEntry {
  // Monotonic sequence number within the log.
  long long sequence = 0;
  std::string user;
  // The statement as submitted (normalized rendering).
  std::string statement;
  AuditOutcome outcome = AuditOutcome::kDenied;
  // Rows delivered / affected; withheld counterpart where applicable.
  int affected = 0;
  int withheld = 0;
  // The inferred permit statements accompanying a partial delivery,
  // shared with the decision that rendered them; null otherwise.
  std::shared_ptr<const RenderedPermits> rendered_permits;

  // Those statements joined by "; "; empty when there are none.
  std::string permits() const;
};

class AuditLog {
 public:
  // Numbers the entry (monotonic from 1) and appends it.
  void Record(AuditEntry entry);

  // A copy of every entry, oldest first.
  std::vector<AuditEntry> entries() const;
  int size() const;

  // AUDIT = (SEQ, USER, STATEMENT, OUTCOME, AFFECTED, WITHHELD, PERMITS).
  Relation Materialize() const;

  // Human-readable listing (most recent last).
  std::string ToString(int last_n = 0) const;

 private:
  mutable std::mutex mutex_;
  std::vector<AuditEntry> entries_;
  long long next_sequence_ = 1;
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_AUDIT_LOG_H_
