#include "authz/audit_log.h"

#include <sstream>

#include "authz/authz_cache.h"

namespace viewauth {

std::string_view AuditOutcomeToString(AuditOutcome outcome) {
  switch (outcome) {
    case AuditOutcome::kFullAccess:
      return "full-access";
    case AuditOutcome::kPartial:
      return "partial";
    case AuditOutcome::kDenied:
      return "denied";
    case AuditOutcome::kInsertAllowed:
      return "insert-allowed";
    case AuditOutcome::kInsertDenied:
      return "insert-denied";
    case AuditOutcome::kDeleteApplied:
      return "delete-applied";
    case AuditOutcome::kModifyApplied:
      return "modify-applied";
    case AuditOutcome::kError:
      return "error";
  }
  return "?";
}

std::string AuditEntry::permits() const {
  return rendered_permits == nullptr ? std::string()
                                     : rendered_permits->Join("; ");
}

void AuditLog::Record(AuditEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entry.sequence = next_sequence_++;
  entries_.push_back(std::move(entry));
}

std::vector<AuditEntry> AuditLog::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

int AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(entries_.size());
}

Relation AuditLog::Materialize() const {
  RelationSchema schema =
      RelationSchema::Make("AUDIT",
                           {{"SEQ", ValueType::kInt64},
                            {"USER", ValueType::kString},
                            {"STATEMENT", ValueType::kString},
                            {"OUTCOME", ValueType::kString},
                            {"AFFECTED", ValueType::kInt64},
                            {"WITHHELD", ValueType::kInt64},
                            {"PERMITS", ValueType::kString}})
          .value();
  Relation out(std::move(schema));
  std::lock_guard<std::mutex> lock(mutex_);
  for (const AuditEntry& entry : entries_) {
    out.InsertUnchecked(Tuple(
        {Value::Int64(entry.sequence), Value::String(entry.user),
         Value::String(entry.statement),
         Value::String(std::string(AuditOutcomeToString(entry.outcome))),
         Value::Int64(entry.affected), Value::Int64(entry.withheld),
         Value::String(entry.permits())}));
  }
  return out;
}

std::string AuditLog::ToString(int last_n) const {
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(mutex_);
  size_t begin = 0;
  if (last_n > 0 && static_cast<size_t>(last_n) < entries_.size()) {
    begin = entries_.size() - static_cast<size_t>(last_n);
  }
  for (size_t i = begin; i < entries_.size(); ++i) {
    const AuditEntry& e = entries_[i];
    out << "#" << e.sequence << " [" << e.user << "] "
        << AuditOutcomeToString(e.outcome);
    if (e.affected > 0 || e.withheld > 0) {
      out << " (" << e.affected << " affected";
      if (e.withheld > 0) out << ", " << e.withheld << " withheld";
      out << ")";
    }
    out << ": " << e.statement;
    if (e.rendered_permits != nullptr) out << "  -- " << e.permits();
    out << "\n";
  }
  return out.str();
}

}  // namespace viewauth
