// The four workloads of the wire-level benchmark: their seeded data,
// view catalogs, request streams and answer oracles. Everything a
// workload sends is generated here from the --seed argument; the engine
// under test only ever receives statements (and, at set-up, rows through
// Relation::Insert).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

enum class WorkloadKind { kPointHot, kJoinCold, kScanLarge, kMixedWrite };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  // Closed-loop client sessions, one thread each.
  int sessions;
};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

enum class OpKind { kRetrieve, kInsert, kGrant };

struct Op {
  OpKind kind = OpKind::kRetrieve;
  std::string text;
  // Retrieves: the requesting user's index (named by the `as` clause).
  // Grants: the toggle pair's index.
  int user = 0;
  // Point and join retrieves: the (first) key constant. Inserts: the new
  // key. -1 when the request has none.
  int64_t key = -1;
  // Grants: true for permit, false for deny.
  bool permit = false;
};

// Restricts which generated rows a load keeps: (relation index, key).
using RowFilter = std::function<bool(int relation, int64_t key)>;

// The seeded database and catalog of one workload. Immutable once built;
// shared by every session, the oracle and the traced run.
class Dataset {
 public:
  Dataset(WorkloadKind kind, uint64_t seed);

  WorkloadKind kind() const { return kind_; }
  int users() const { return users_; }
  int rows_per_relation() const { return rows_; }

  // Administrative statements: relations, views and grants.
  std::string CatalogScript() const;
  // Inserts the generated rows into engine.db() through the key-checked
  // Relation::Insert path, skipping rows `keep` rejects (null keeps all).
  // Quiesced use only.
  void LoadRows(viewauth::Engine& engine, const RowFilter& keep = {}) const;
  // The statements set-up runs once so that measurement starts warm:
  // every hot (user, constant) pair, or one request per user.
  std::vector<std::string> WarmupStatements() const;

  // Row i of relation r: (KEY = i, A, B).
  int64_t A(int r, int64_t key) const { return a_[Slot(r, key)]; }
  int64_t B(int r, int64_t key) const { return b_[Slot(r, key)]; }

  // point_hot and mixed_write draw every retrieve from this set of
  // (user index, key) pairs.
  const std::vector<std::pair<int, int64_t>>& hot_set() const {
    return hot_set_;
  }

  std::string PointRetrieve(int user, int64_t key) const;
  std::string ScanRetrieve(int user, int variant) const;
  // The 3-atom join chain starting at R0.KEY = c0; its constants follow
  // the data, so the answer holds exactly one raw row.
  std::string JoinRetrieve(int user, int64_t c0) const;
  // Toggle pair p of mixed_write: view T<p> granted to user u<p>.
  static std::string ToggleView(int pair);
  static std::string UserName(int user);

 private:
  size_t Slot(int r, int64_t key) const {
    return static_cast<size_t>(r) * static_cast<size_t>(rows_) +
           static_cast<size_t>(key);
  }

  WorkloadKind kind_;
  int relations_ = 1;
  int rows_ = 0;
  int users_ = 0;
  std::vector<int32_t> a_;
  std::vector<int32_t> b_;
  std::vector<std::pair<int, int64_t>> hot_set_;
};

// The request stream of one session: deterministic for a (dataset, seed,
// session) triple, independent of timing.
class OpStream {
 public:
  OpStream(const Dataset& data, uint64_t seed, int session);

  Op Next();
  // A retrieve with the same user and shape as `op` whose mask the
  // authorization cache cannot hold yet: a constant this stream has not
  // used. The traced run sends these when the real request missed the
  // mask cache, so that its decomposed calls miss too.
  Op FreshVariant(const Op& op);
  // The statement that undoes grant `op` (permit <-> deny).
  static Op Inverse(const Op& op);

  int session() const { return session_; }

 private:
  Op Retrieve();

  const Dataset& data_;
  int session_;
  std::mt19937_64 rng_;
  std::set<std::pair<int, int64_t>> used_;
  int64_t next_insert_ = 0;
  int next_variant_ = 1;
  bool granted_ = true;  // mixed_write: state of this session's toggle
};

// A reply kept for the answer oracle.
struct Sample {
  std::string statement;
  std::string reply;
  // The request's key constant (Op::key).
  int64_t key = -1;
};

// Recomputes every sample on a second engine built from the same seed
// with the authorization cache off and the canonical data plan — the
// paper's S and S' with no cache — and returns how many replies differ.
// The oracle loads only the rows a sampled request can select, which
// cannot change a sampled answer (every join atom carries a key
// constant) and keeps the canonical plan's products small on join_cold.
// Replies compare as multisets of lines (the permit lines' order is not
// part of the answer). Mismatches are described on stderr.
int CheckWithOracle(const Dataset& data, const std::vector<Sample>& samples);

// The oracle's self-test (point_hot only): changes the B cell of a hot
// row the requesting user receives whole, in `engine`'s data, and
// returns that request. The oracle must flag its reply. Quiesced use
// only.
Op PlantWrongCell(viewauth::Engine& engine, const Dataset& data);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
