#include "authz/authz_cache.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/str_util.h"
#include "meta/view_store.h"

namespace viewauth {

namespace {
// The entry bound. Prepared meta-relations and constant profiles number
// one per (user, relation set), and class-keyed decisions one per order
// class of a query shape's constants, so a workload that keeps within
// this bound is one whose shapes and classes repeat; queries with
// exact-keyed decisions and fresh constants (an Int64 next to a view
// bound, a double, a mask that names its constant) are what cross it,
// and what EvictLocked drops first.
constexpr size_t kMaxEntries = 1024;

// Does some recorded scope select an entry with this relation read set?
// (The dependency test: scope ⊆ relations.)
bool ScopeMatches(const std::vector<std::set<std::string>>& scopes,
                  const std::set<std::string>& relations) {
  for (const std::set<std::string>& scope : scopes) {
    if (!scope.empty() &&
        std::includes(relations.begin(), relations.end(), scope.begin(),
                      scope.end())) {
      return true;
    }
  }
  return false;
}
}  // namespace

std::string InferredPermit::ToString() const {
  std::string out = "permit (" + Join(columns, ", ") + ")";
  if (!where.empty()) out += " where " + where;
  return out;
}

void RenderedPermits::Add(std::string_view permit) {
  lines_ += permit;
  ends_.push_back(lines_.size());
  lines_ += '\n';
}

std::string_view RenderedPermits::permit(size_t i) const {
  const size_t begin = i == 0 ? 0 : ends_[i - 1] + 1;
  return std::string_view(lines_).substr(begin, ends_[i] - begin);
}

std::string RenderedPermits::Join(std::string_view separator) const {
  std::string out;
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += separator;
    out += permit(i);
  }
  return out;
}

AuthzStats& AuthzStats::operator+=(const AuthzStats& o) {
  retrieves += o.retrieves;
  prepared_hits += o.prepared_hits;
  prepared_misses += o.prepared_misses;
  mask_hits += o.mask_hits;
  class_hits += o.class_hits;
  mask_misses += o.mask_misses;
  mask_compiles += o.mask_compiles;
  meta_tuples_pruned += o.meta_tuples_pruned;
  batches_evaluated += o.batches_evaluated;
  mask_batch_applies += o.mask_batch_applies;
  entries_invalidated += o.entries_invalidated;
  entries_retained += o.entries_retained;
  invalidations_exact += o.invalidations_exact;
  invalidations_over += o.invalidations_over;
  entries_evicted += o.entries_evicted;
  mask_derivation_micros += o.mask_derivation_micros;
  data_eval_micros += o.data_eval_micros;
  mask_apply_micros += o.mask_apply_micros;
  total_micros += o.total_micros;
  deadline_exceeded += o.deadline_exceeded;
  budget_exceeded += o.budget_exceeded;
  cancelled += o.cancelled;
  governor_checks += o.governor_checks;
  admission_attempts += o.admission_attempts;
  admitted += o.admitted;
  queued += o.queued;
  shed += o.shed;
  queue_timeouts += o.queue_timeouts;
  return *this;
}

std::string AuthzStats::ToString() const {
  std::ostringstream out;
  out << "authorization stats:\n"
      << "  retrieves:        " << retrieves << "\n"
      << "  prepared cache:   " << prepared_hits << " hit(s), "
      << prepared_misses << " miss(es)\n"
      << "  mask cache:       " << mask_hits << " hit(s) (" << class_hits
      << " by class), " << mask_misses << " miss(es)\n"
      << "  mask compiles:    " << mask_compiles << "\n"
      << "  vectorized:       " << batches_evaluated << " batch(es), "
      << mask_batch_applies << " mask kernel(s)\n"
      << "  invalidations:    " << entries_invalidated << " entry(ies) ("
      << invalidations_exact << " exact event(s), " << invalidations_over
      << " over), " << entries_retained << " retained, "
      << entries_evicted << " evicted\n"
      << "  meta pruned:      " << meta_tuples_pruned << " tuple(s)\n"
      << "  wall times (us):  mask=" << mask_derivation_micros
      << " data=" << data_eval_micros << " apply=" << mask_apply_micros
      << " total=" << total_micros << "\n"
      << "governor stats:\n"
      << "  deadline aborts:  " << deadline_exceeded << "\n"
      << "  budget aborts:    " << budget_exceeded << "\n"
      << "  cancellations:    " << cancelled << "\n"
      << "  clock probes:     " << governor_checks << "\n"
      << "admission stats:\n"
      << "  attempts:         " << admission_attempts << " (" << admitted
      << " admitted, " << queued << " queued)\n"
      << "  shed:             " << shed << " immediate, " << queue_timeouts
      << " queue timeout(s)\n";
  return out.str();
}

AuthzGeneration AuthzCache::Sync(const ViewCatalog& catalog,
                                  long long ddl_version) {
  const AuthzGeneration reader{catalog.catalog_version(), ddl_version};
  std::lock_guard<std::mutex> lock(mutex_);
  if (reader.schema > synced_.schema) {
    WipeLocked();
    synced_.schema = reader.schema;
  }
  if (reader.catalog > synced_.catalog) {
    std::vector<CatalogMutation> records;
    if (catalog.MutationsSince(synced_.catalog, &records)) {
      for (const CatalogMutation& record : records) {
        ApplyCatalogMutationLocked(record);
      }
    } else {
      // The bounded journal no longer reaches back to our synced point:
      // records were lost, so no sound selective answer exists.
      WipeLocked();
    }
    synced_.catalog = reader.catalog;
    CheckIndexLocked();
  }
  return reader;
}

std::optional<AuthzCache::Value> AuthzCache::Find(
    const std::string& key, const AuthzGeneration& gen) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  // Every entry carries the synced schema (a DDL advance wipes), so an
  // older-schema reader misses. A reader pinned to an older snapshot
  // additionally requires entry.catalog <= its own catalog version: an
  // entry that survived journal replay up to the synced sequence is
  // unaffected by every mutation after its store point, a superset of
  // the mutations after any older snapshot — so older entries are valid
  // for old readers, while an entry derived *after* the reader's
  // snapshot may reflect entitlements the snapshot never had. From the
  // cache's point of view such an entry is current (a newer reader will
  // hit it); this old-snapshot reader just misses.
  const AuthzGeneration& stored = it->second.gen;
  if (stored.schema != gen.schema || stored.catalog > gen.catalog) {
    return std::nullopt;
  }
  return it->second.value;
}

void AuthzCache::StoreLocked(std::string key, const AuthzGeneration& gen,
                             Value value, AuthzDependencies deps) {
  // An entry derived at a generation the cache has already synced past
  // may be missing invalidations that were replayed in the meantime;
  // admitting it would be unsound. Reachable under snapshot isolation: a
  // retrieve pinned to an old snapshot commits its txn after a newer
  // reader synced the cache forward — its fills are simply dropped.
  if (gen != synced_) return;
  if (entries_.size() > kMaxEntries) EvictLocked();
  auto it = entries_.find(key);
  if (it != entries_.end()) IndexEraseLocked(key, it->second.deps.user);
  by_user_[deps.user].insert(key);
  entries_.insert_or_assign(std::move(key),
                            Entry{gen, std::move(deps), std::move(value)});
}

void AuthzCache::EvictLocked() {
  // Prepared meta-relations and profiles are cheap to keep and expensive
  // to rebuild; exact-keyed decisions are the ones least likely to be
  // asked for again.
  for (std::string_view tag : {kExactDecisionTag, kClassDecisionTag}) {
    stats_.entries_evicted += EraseKindLocked(tag);
    if (entries_.size() <= kMaxEntries) return;
  }
  stats_.entries_evicted += ClearLocked();
}

long long AuthzCache::EraseKindLocked(std::string_view tag) {
  long long dropped = 0;
  // Keys of one kind are contiguous in the map.
  auto it = entries_.lower_bound(std::string(tag));
  while (it != entries_.end() && it->first.starts_with(tag)) {
    IndexEraseLocked(it->first, it->second.deps.user);
    it = entries_.erase(it);
    ++dropped;
  }
  return dropped;
}

// --- dependency index and selective invalidation --------------------------

void AuthzCache::IndexEraseLocked(const std::string& key,
                                  const std::string& user) {
  auto it = by_user_.find(user);
  if (it == by_user_.end()) return;
  it->second.erase(key);
  if (it->second.empty()) by_user_.erase(it);
}

long long AuthzCache::ClearLocked() {
  const long long dropped = static_cast<long long>(entries_.size());
  entries_.clear();
  by_user_.clear();
  return dropped;
}

void AuthzCache::ApplyCatalogMutationLocked(const CatalogMutation& record) {
  // Records that cannot select any retrieval entry (fresh view
  // definitions, update-mode grants, revocation-record bookkeeping)
  // are exact by construction and not counted as events.
  if (record.users.empty() || record.scopes.empty()) return;

  long long dropped = 0;
  for (const std::string& user : record.users) {
    auto ref = by_user_.find(user);
    if (ref == by_user_.end()) continue;
    std::set<std::string>& keys = ref->second;
    for (auto key = keys.begin(); key != keys.end();) {
      auto it = entries_.find(*key);
      if (it != entries_.end() &&
          ScopeMatches(record.scopes, it->second.deps.relations)) {
        entries_.erase(it);
        key = keys.erase(key);
        ++dropped;
      } else {
        ++key;
      }
    }
    if (keys.empty()) by_user_.erase(ref);
  }

  ++stats_.invalidations_exact;
  stats_.entries_retained += static_cast<long long>(entries_.size());
  stats_.entries_invalidated += dropped;
}

void AuthzCache::CheckIndexLocked() const {
#ifndef NDEBUG
  // Forward: every entry is indexed under its user.
  for (const auto& [key, entry] : entries_) {
    auto it = by_user_.find(entry.deps.user);
    assert(it != by_user_.end() && "cache entry missing from user index");
    assert(it->second.contains(key) &&
           "cache entry key missing from user index");
  }
  // Backward: every indexed key resolves to a live entry of that user.
  for (const auto& [user, keys] : by_user_) {
    assert(!keys.empty() && "user index entry with no keys");
    for (const std::string& key : keys) {
      auto it = entries_.find(key);
      assert(it != entries_.end() && it->second.deps.user == user);
    }
  }
#endif
}

void AuthzCache::WipeLocked() {
  const long long dropped = ClearLocked();
  if (dropped > 0) {
    stats_.entries_invalidated += dropped;
    ++stats_.invalidations_over;
  }
}

void AuthzCache::CountGovernedAbort(StatusCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (code) {
    case StatusCode::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      break;
    case StatusCode::kResourceExhausted:
      ++stats_.budget_exceeded;
      break;
    case StatusCode::kCancelled:
      ++stats_.cancelled;
      break;
    default:
      break;
  }
}

void AuthzCache::AddGovernorChecks(long long checks) {
  if (checks <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.governor_checks += checks;
}

AuthzStats AuthzCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void AuthzCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = AuthzStats{};
}

// --- AuthzCacheTxn --------------------------------------------------------

AuthzCacheTxn::AuthzCacheTxn(AuthzCache* cache, const ViewCatalog& catalog,
                             long long ddl_version)
    : cache_(cache) {
  if (cache_ != nullptr) gen_ = cache_->Sync(catalog, ddl_version);
}

std::optional<AuthzCache::Value> AuthzCacheTxn::Find(
    const std::string& key) const {
  // Latest store wins; a retrieve stages a handful of entries, so a
  // reverse linear scan beats a map.
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (it->key == key) return it->value;
  }
  return cache_->Find(key, gen_);
}

std::shared_ptr<const Decision> AuthzCacheTxn::LookupDecision(
    const std::string& class_key, const std::string& exact_key) {
  if (cache_ == nullptr) return nullptr;
  std::optional<AuthzCache::Value> hit;
  if (!class_key.empty()) hit = Find(class_key);
  if (hit.has_value()) {
    ++stats_.class_hits;
  } else {
    hit = Find(exact_key);
  }
  if (!hit.has_value()) {
    ++stats_.mask_misses;
    return nullptr;
  }
  ++stats_.mask_hits;
  return std::get<std::shared_ptr<const Decision>>(std::move(*hit));
}

std::shared_ptr<const ConstantProfile> AuthzCacheTxn::LookupProfile(
    const std::string& key) {
  if (cache_ == nullptr) return nullptr;
  std::optional<AuthzCache::Value> hit = Find(key);
  if (!hit.has_value()) return nullptr;
  return std::get<std::shared_ptr<const ConstantProfile>>(std::move(*hit));
}

std::shared_ptr<const MetaRelation> AuthzCacheTxn::LookupPrepared(
    const std::string& key) {
  if (cache_ == nullptr) return nullptr;
  std::optional<AuthzCache::Value> hit = Find(key);
  if (!hit.has_value()) {
    ++stats_.prepared_misses;
    return nullptr;
  }
  ++stats_.prepared_hits;
  return std::get<std::shared_ptr<const MetaRelation>>(std::move(*hit));
}

void AuthzCacheTxn::Store(std::string key, AuthzCache::Value value,
                          AuthzDependencies deps) {
  if (cache_ == nullptr) return;
  pending_.push_back(
      Pending{std::move(key), std::move(value), std::move(deps)});
}

void AuthzCacheTxn::Commit() {
  if (cache_ == nullptr || committed_) return;
  committed_ = true;
  std::lock_guard<std::mutex> lock(cache_->mutex_);
  for (Pending& e : pending_) {
    cache_->StoreLocked(std::move(e.key), gen_, std::move(e.value),
                        std::move(e.deps));
  }
  pending_.clear();
  cache_->stats_ += stats_;
  stats_ = AuthzStats{};
}

}  // namespace viewauth
