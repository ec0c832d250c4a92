#include "workload.h"

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/logging.h"

namespace perfbench {

using viewauth::Engine;
using viewauth::Tuple;
using viewauth::Value;

namespace {

// Mask-cache pressure is the point of the hot set: 256 (user, constant)
// pairs fit the authorization cache's 1,024 entries per map.
constexpr int kHotSetSize = 256;
// mixed_write: an insert's key never collides with a loaded row or with
// another session's inserts.
constexpr int64_t kInsertKeyBase = 1'000'000;
// scan_large's range predicate: B is uniform over [0, 1000), so about a
// tenth of the rows (~13,000 of 131,072) qualify.
constexpr int kScanBound = 100;
// join_cold: B-range views per relation and join views per relation
// pair, per user. Three of each keep a cold mask derivation near 10 ms,
// so a 15 s run collects enough requests for a steady 0.99 quantile.
constexpr int kViewsPerGroup = 3;

struct Shape {
  int relations;
  int rows;
  int users;
};

Shape ShapeOf(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPointHot:
    case WorkloadKind::kScanLarge:
      return {1, 131072, 16};
    case WorkloadKind::kJoinCold:
      return {3, 32768, 8};
    case WorkloadKind::kMixedWrite:
      // 8,192 rather than 16,384 rows: the durability check reopens the
      // log, and replaying keyed inserts is quadratic (about 98 s at
      // 16,384 rows against 19 s at 8,192 on a 4-core x86 box).
      return {1, 8192, 8};
  }
  return {1, 0, 0};
}

std::string RelationName(WorkloadKind kind, int r) {
  if (kind == WorkloadKind::kJoinCold) return "R" + std::to_string(r);
  if (kind == WorkloadKind::kMixedWrite) return "K";
  return "R";
}

// Per-user view thresholds of the single-relation workloads: rows with
// A < lo are delivered whole, lo <= A < hi lose B, the rest are dropped.
int WholeBelow(int user) { return 300 + 10 * user; }
int PartialBelow(int user) { return 700 + 10 * user; }

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"point_hot", WorkloadKind::kPointHot, 2},
      {"join_cold", WorkloadKind::kJoinCold, 2},
      {"scan_large", WorkloadKind::kScanLarge, 2},
      {"mixed_write", WorkloadKind::kMixedWrite, 2},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Dataset::Dataset(WorkloadKind kind, uint64_t seed) : kind_(kind) {
  const Shape shape = ShapeOf(kind);
  relations_ = shape.relations;
  rows_ = shape.rows;
  users_ = shape.users;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL +
                      static_cast<uint64_t>(kind) + 1);
  // join_cold's A is a foreign key into the next relation's KEY.
  const int64_t a_range = kind == WorkloadKind::kJoinCold ? rows_ : 1000;
  const size_t cells = static_cast<size_t>(relations_) * rows_;
  a_.resize(cells);
  b_.resize(cells);
  for (size_t i = 0; i < cells; ++i) {
    a_[i] = static_cast<int32_t>(rng() % static_cast<uint64_t>(a_range));
    b_[i] = static_cast<int32_t>(rng() % 1000);
  }
  if (kind == WorkloadKind::kPointHot || kind == WorkloadKind::kMixedWrite) {
    std::set<std::pair<int, int64_t>> seen;
    while (static_cast<int>(hot_set_.size()) < kHotSetSize) {
      const int user = static_cast<int>(hot_set_.size()) % users_;
      const auto key = static_cast<int64_t>(rng() % rows_);
      if (seen.insert({user, key}).second) hot_set_.push_back({user, key});
    }
  }
}

std::string Dataset::UserName(int user) { return "u" + std::to_string(user); }

std::string Dataset::ToggleView(int pair) { return "T" + std::to_string(pair); }

std::string Dataset::CatalogScript() const {
  std::ostringstream out;
  const char* key_decl = kind_ == WorkloadKind::kMixedWrite ? " key" : "";
  for (int r = 0; r < relations_; ++r) {
    out << "relation " << RelationName(kind_, r) << " (KEY int" << key_decl
        << ", A int, B int)\n";
  }
  if (kind_ == WorkloadKind::kJoinCold) {
    // Per user: 3 B-range views on each relation and 3 join views, with
    // key ranges, on each adjacent relation pair, so S' multiplies 6-9
    // meta-tuples per atom and prunes, refines and subsumes their
    // products. B is never fixed by a request, so every mask keeps a
    // restriction: requests are neither denied nor fully granted, and
    // each one compiles and applies its mask.
    for (int u = 0; u < users_; ++u) {
      const std::string user = UserName(u);
      for (int r = 0; r < relations_; ++r) {
        const std::string rel = RelationName(kind_, r);
        for (int v = 0; v < kViewsPerGroup; ++v) {
          const int lo = v * 330 + u * 8;
          const std::string name = "G" + std::to_string(u) + "r" +
                                   std::to_string(r) + "v" + std::to_string(v);
          out << "view " << name << " (" << rel << ".KEY, " << rel << ".A, "
              << rel << ".B) where " << rel << ".B >= " << lo << " and "
              << rel << ".B < " << lo + 400 << "\n"
              << "permit " << name << " to " << user << "\n";
        }
      }
      for (int r = 0; r + 1 < relations_; ++r) {
        const std::string a = RelationName(kind_, r);
        const std::string b = RelationName(kind_, r + 1);
        for (int v = 0; v < kViewsPerGroup; ++v) {
          const int lo = v * 10923 + u * 256;
          const std::string name = "J" + std::to_string(u) + "p" +
                                   std::to_string(r) + "v" + std::to_string(v);
          out << "view " << name << " (" << a << ".KEY, " << a << ".B, " << b
              << ".KEY, " << b << ".B) where " << a << ".A = " << b
              << ".KEY and " << a << ".KEY >= " << lo << " and " << a
              << ".KEY < " << lo + 8192 << "\n"
              << "permit " << name << " to " << user << "\n";
        }
      }
    }
    return out.str();
  }
  const std::string rel = RelationName(kind_, 0);
  for (int u = 0; u < users_; ++u) {
    const std::string user = UserName(u);
    out << "view W" << u << " (" << rel << ".KEY, " << rel << ".A, " << rel
        << ".B) where " << rel << ".A < " << WholeBelow(u) << "\n"
        << "view P" << u << " (" << rel << ".KEY, " << rel << ".A) where "
        << rel << ".A >= " << WholeBelow(u) << " and " << rel << ".A < "
        << PartialBelow(u) << "\n"
        << "permit W" << u << " to " << user << "\n"
        << "permit P" << u << " to " << user << "\n";
  }
  if (kind_ == WorkloadKind::kMixedWrite) {
    for (const WorkloadSpec& spec : AllWorkloads()) {
      if (spec.kind != kind_) continue;
      for (int p = 0; p < spec.sessions; ++p) {
        out << "view " << ToggleView(p) << " (" << rel << ".KEY, " << rel
            << ".B) where " << rel << ".A >= 900\n"
            << "permit " << ToggleView(p) << " to " << UserName(p) << "\n";
      }
    }
  }
  return out.str();
}

void Dataset::LoadRows(Engine& engine, const RowFilter& keep) const {
  for (int r = 0; r < relations_; ++r) {
    const std::string rel = RelationName(kind_, r);
    for (int64_t key = 0; key < rows_; ++key) {
      if (keep && !keep(r, key)) continue;
      viewauth::Status inserted = engine.db().Insert(
          rel, Tuple({Value::Int64(key), Value::Int64(A(r, key)),
                      Value::Int64(B(r, key))}));
      VIEWAUTH_CHECK(inserted.ok()) << inserted.ToString();
    }
  }
}

std::vector<std::string> Dataset::WarmupStatements() const {
  std::vector<std::string> out;
  switch (kind_) {
    case WorkloadKind::kPointHot:
    case WorkloadKind::kMixedWrite:
      for (const auto& [user, key] : hot_set_) {
        out.push_back(PointRetrieve(user, key));
      }
      break;
    case WorkloadKind::kScanLarge:
      for (int u = 0; u < users_; ++u) out.push_back(ScanRetrieve(u, 0));
      break;
    case WorkloadKind::kJoinCold:
      // Fills the per-relation prepared meta-relations; the masks stay
      // cold by construction.
      for (int u = 0; u < users_; ++u) {
        out.push_back(JoinRetrieve(u, (u * 4099) % rows_));
      }
      break;
  }
  return out;
}

std::string Dataset::PointRetrieve(int user, int64_t key) const {
  const std::string rel = RelationName(kind_, 0);
  return "retrieve (" + rel + ".KEY, " + rel + ".A, " + rel + ".B) where " +
         rel + ".KEY = " + std::to_string(key) + " as " + UserName(user);
}

std::string Dataset::ScanRetrieve(int user, int variant) const {
  // A variant adds a condition every row satisfies, which changes the
  // query signature (and so the mask-cache key) but not the answer.
  std::string extra;
  if (variant > 0) {
    extra = " and R.KEY < " + std::to_string(rows_ + variant);
  }
  return "retrieve (R.KEY, R.A, R.B) where R.B < " +
         std::to_string(kScanBound) + extra + " as " + UserName(user);
}

std::string Dataset::JoinRetrieve(int user, int64_t c0) const {
  const int64_t c1 = A(0, c0);
  const int64_t c2 = A(1, c1);
  return "retrieve (R0.KEY, R0.B, R1.KEY, R1.B, R2.KEY, R2.B) where "
         "R0.A = R1.KEY and R1.A = R2.KEY and R0.KEY = " +
         std::to_string(c0) + " and R1.KEY = " + std::to_string(c1) +
         " and R2.KEY = " + std::to_string(c2) + " as " + UserName(user);
}

OpStream::OpStream(const Dataset& data, uint64_t seed, int session)
    : data_(data),
      session_(session),
      rng_(seed * 0xD1B54A32D192ED03ULL + static_cast<uint64_t>(session) +
           0x5EED) {}

Op OpStream::Retrieve() {
  Op op;
  switch (data_.kind()) {
    case WorkloadKind::kPointHot:
    case WorkloadKind::kMixedWrite: {
      const auto& [user, key] = data_.hot_set()[rng_() % data_.hot_set().size()];
      op.user = user;
      op.key = key;
      op.text = data_.PointRetrieve(user, key);
      break;
    }
    case WorkloadKind::kScanLarge:
      op.user = static_cast<int>(rng_() % data_.users());
      op.text = data_.ScanRetrieve(op.user, 0);
      break;
    case WorkloadKind::kJoinCold:
      op.user = static_cast<int>(rng_() % data_.users());
      op.key = static_cast<int64_t>(rng_() % data_.rows_per_relation());
      used_.insert({op.user, op.key});
      op.text = data_.JoinRetrieve(op.user, op.key);
      break;
  }
  return op;
}

Op OpStream::Next() {
  if (data_.kind() != WorkloadKind::kMixedWrite) return Retrieve();
  // 80% point retrieves, 15% inserts of new keys, 5% grant toggles.
  const uint64_t roll = rng_() % 100;
  if (roll < 80) return Retrieve();
  Op op;
  if (roll < 95) {
    op.kind = OpKind::kInsert;
    op.key = kInsertKeyBase * (session_ + 1) + next_insert_++;
    op.text = "insert into K values (" + std::to_string(op.key) + ", " +
              std::to_string(rng_() % 1000) + ", " +
              std::to_string(rng_() % 1000) + ")";
    return op;
  }
  op.kind = OpKind::kGrant;
  op.user = session_;
  op.permit = !granted_;
  granted_ = !granted_;
  op.text = std::string(op.permit ? "permit " : "deny ") +
            Dataset::ToggleView(session_) + " to " +
            Dataset::UserName(session_);
  return op;
}

Op OpStream::FreshVariant(const Op& op) {
  Op fresh = op;
  switch (data_.kind()) {
    case WorkloadKind::kPointHot:
    case WorkloadKind::kMixedWrite:
    case WorkloadKind::kJoinCold: {
      const auto& hot = data_.hot_set();  // empty on join_cold
      for (;;) {
        const auto key =
            static_cast<int64_t>(rng_() % data_.rows_per_relation());
        const std::pair<int, int64_t> pair{op.user, key};
        if (std::find(hot.begin(), hot.end(), pair) != hot.end()) continue;
        if (!used_.insert(pair).second) continue;
        fresh.key = key;
        break;
      }
      fresh.text = data_.kind() == WorkloadKind::kJoinCold
                       ? data_.JoinRetrieve(op.user, fresh.key)
                       : data_.PointRetrieve(op.user, fresh.key);
      break;
    }
    case WorkloadKind::kScanLarge:
      fresh.text = data_.ScanRetrieve(op.user, next_variant_++);
      break;
  }
  return fresh;
}

Op OpStream::Inverse(const Op& op) {
  Op inverse = op;
  inverse.permit = !op.permit;
  inverse.text = std::string(inverse.permit ? "permit " : "deny ") +
                 Dataset::ToggleView(op.user) + " to " +
                 Dataset::UserName(op.user);
  return inverse;
}

namespace {

// Every row a sampled request can select: the key constants of point and
// join requests (a join's chain follows from its first key), the range
// predicate of scans.
RowFilter OracleFilter(const Dataset& data, const std::vector<Sample>& samples) {
  if (data.kind() == WorkloadKind::kScanLarge) {
    return [&data](int r, int64_t key) { return data.B(r, key) < kScanBound; };
  }
  auto keys = std::make_shared<std::vector<std::set<int64_t>>>(3);
  for (const Sample& sample : samples) {
    if (sample.key < 0) continue;
    (*keys)[0].insert(sample.key);
    if (data.kind() == WorkloadKind::kJoinCold) {
      const int64_t c1 = data.A(0, sample.key);
      (*keys)[1].insert(c1);
      (*keys)[2].insert(data.A(1, c1));
    }
  }
  return [keys](int r, int64_t key) {
    return (*keys)[static_cast<size_t>(r)].count(key) > 0;
  };
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace

int CheckWithOracle(const Dataset& data, const std::vector<Sample>& samples) {
  if (samples.empty()) return 0;
  Engine oracle;
  oracle.options().enable_authz_cache = false;
  oracle.options().use_optimized_data_plan = false;
  auto catalog = oracle.ExecuteScript(data.CatalogScript());
  VIEWAUTH_CHECK(catalog.ok()) << catalog.status().ToString();
  data.LoadRows(oracle, OracleFilter(data, samples));
  int mismatches = 0;
  for (const Sample& sample : samples) {
    auto expected = oracle.Execute(sample.statement);
    if (expected.ok() && SortedLines(*expected) == SortedLines(sample.reply)) {
      continue;
    }
    ++mismatches;
    std::cerr << "oracle mismatch for: " << sample.statement << "\n  expected: "
              << (expected.ok() ? *expected : expected.status().ToString())
              << "\n  delivered: " << sample.reply << "\n";
  }
  return mismatches;
}

Op PlantWrongCell(Engine& engine, const Dataset& data) {
  VIEWAUTH_CHECK(data.kind() == WorkloadKind::kPointHot);
  for (const auto& [user, key] : data.hot_set()) {
    if (data.A(0, key) >= WholeBelow(user)) continue;
    auto rel = engine.db().GetRelation("R");
    VIEWAUTH_CHECK(rel.ok()) << rel.status().ToString();
    const Value a = Value::Int64(data.A(0, key));
    const bool erased = (*rel)->Erase(
        Tuple({Value::Int64(key), a, Value::Int64(data.B(0, key))}));
    const viewauth::Status planted = (*rel)->Insert(
        Tuple({Value::Int64(key), a, Value::Int64(data.B(0, key) + 1000)}));
    VIEWAUTH_CHECK(erased && planted.ok()) << planted.ToString();
    Op op;
    op.user = user;
    op.key = key;
    op.text = data.PointRetrieve(user, key);
    return op;
  }
  VIEWAUTH_CHECK(false) << "no hot row is delivered whole";
  return {};
}

}  // namespace perfbench
