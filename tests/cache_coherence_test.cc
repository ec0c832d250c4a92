// Cache-coherence torture tier: seeded randomized interleavings of
// permit / deny / insert / view-redefinition / membership / retrieve
// statements across eight users, executed in lockstep on two engines:
//
//   * the CACHED engine runs with the default fast pipeline
//     (decision cache, meta cache, vectorized columnar data plan with
//     fused mask application);
//   * the ORACLE engine runs cold — no caches, canonical data plan,
//     interpretive mask application — so every
//     one of its answers is derived from scratch against the current
//     catalog, without the compiled-mask code the cached engine uses.
//
// After every step both engines execute the same probe retrieves and
// their structured results (denied / full-access flags, sorted answer
// rows, alpha-normalized mask keys, normalized inferred permits) must
// be identical. Any stale cache entry that survives a catalog mutation
// it depended on shows up as a divergence on the very next probe, which
// makes this tier the end-to-end check on the dependency-tracked
// selective invalidation in authz/authz_cache.{h,cc}.
//
// Runs in the unit tier and, via tools/check.sh, under TSan and
// ASan+UBSan; its own dedicated step keeps the unit tier fast.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "tests/test_util.h"

namespace viewauth {
namespace {

using testing_util::Observed;
using testing_util::Summarize;

constexpr const char* kUsers[] = {"u0", "u1", "u2", "u3",
                                  "u4", "u5", "u6", "u7"};
constexpr int kUserCount = 8;

// One lockstep harness: both engines see the identical statement
// stream, so their catalogs allocate identical view variable ids.
class Torture {
 public:
  Torture() {
    // cached_ keeps the defaults (vectorized); oracle_ runs the
    // canonical plan cold, with interpretive mask application.
    oracle_.options().enable_authz_cache = false;
    oracle_.options().use_optimized_data_plan = false;
  }

  Engine& cached() { return cached_; }

  // Probes that executed successfully on both engines; the tests assert
  // this stays high so matching failures can never pass vacuously.
  int successful_probes() const { return successful_probes_; }

  // Loads a multi-statement setup script into both engines; it must
  // succeed on both.
  ::testing::AssertionResult Load(const std::string& script) {
    auto fast = cached_.ExecuteScript(script);
    auto cold = oracle_.ExecuteScript(script);
    if (!fast.ok() || !cold.ok()) {
      return ::testing::AssertionFailure()
             << "setup script failed: cached "
             << (fast.ok() ? "ok" : fast.status().ToString()) << ", oracle "
             << (cold.ok() ? "ok" : cold.status().ToString());
    }
    return ::testing::AssertionSuccess();
  }

  // Executes one statement on both engines; the outcomes must agree.
  ::testing::AssertionResult Apply(const std::string& statement) {
    auto fast = cached_.Execute(statement);
    auto cold = oracle_.Execute(statement);
    if (fast.ok() != cold.ok()) {
      return ::testing::AssertionFailure()
             << "statement outcome diverged on `" << statement
             << "`: cached " << (fast.ok() ? "ok" : fast.status().ToString())
             << ", oracle " << (cold.ok() ? "ok" : cold.status().ToString());
    }
    return ::testing::AssertionSuccess();
  }

  // Runs one probe retrieve on both engines and differences the
  // structured results.
  ::testing::AssertionResult Probe(const std::string& retrieve) {
    auto fast = cached_.Retrieve(retrieve);
    auto cold = oracle_.Retrieve(retrieve);
    if (fast.ok() != cold.ok()) {
      return ::testing::AssertionFailure()
             << "probe outcome diverged on `" << retrieve << "`: cached "
             << (fast.ok() ? "ok" : fast.status().ToString()) << ", oracle "
             << (cold.ok() ? "ok" : cold.status().ToString());
    }
    if (!fast.ok()) return ::testing::AssertionSuccess();
    ++successful_probes_;
    const Observed want = Summarize(*cold);
    const Observed got = Summarize(*fast);
    if (!(got == want)) {
      return ::testing::AssertionFailure()
             << "cached (vectorized) engine diverged from oracle on `"
             << retrieve << "`: denied " << want.denied << "/" << got.denied
             << ", full_access " << want.full_access << "/"
             << got.full_access << ", answer rows " << want.answer.size()
             << "/" << got.answer.size() << ", mask tuples "
             << want.mask_keys.size() << "/" << got.mask_keys.size()
             << ", permits " << want.permits.size() << "/"
             << got.permits.size();
    }
    return ::testing::AssertionSuccess();
  }

 private:
  Engine cached_;
  Engine oracle_;
  int successful_probes_ = 0;
};

// The shared two-relation schema every torture scenario runs against.
const char* Schema() {
  return R"(
    relation EMP (NAME string key, DEPT string, SALARY int, LEVEL int)
    relation PROJ (PNO int key, DEPT string, BUDGET int)
    insert into EMP values (jones, sales, 26000, 2)
    insert into EMP values (smith, eng, 22000, 1)
    insert into EMP values (brown, eng, 32000, 3)
    insert into EMP values (klein, ops, 41000, 4)
    insert into PROJ values (1, eng, 150000)
    insert into PROJ values (2, sales, 90000)
    insert into PROJ values (3, ops, 300000)
  )";
}

// View definition text for rotating view slot `slot` at threshold step
// `rev`; redefinitions move the threshold so stale cached masks derived
// from the old definition produce visibly different answers.
std::string ViewText(int slot, int rev) {
  switch (slot % 4) {
    case 0:
      return "view V" + std::to_string(slot) +
             " (EMP.NAME, EMP.SALARY) where EMP.SALARY >= " +
             std::to_string(20000 + 4000 * (rev % 4));
    case 1:
      return "view V" + std::to_string(slot) +
             " (EMP.NAME, EMP.DEPT, EMP.LEVEL) where EMP.LEVEL >= " +
             std::to_string(1 + rev % 4);
    case 2:
      return "view V" + std::to_string(slot) +
             " (PROJ.PNO, PROJ.BUDGET) where PROJ.BUDGET >= " +
             std::to_string(80000 + 60000 * (rev % 4));
    default:
      return "view V" + std::to_string(slot) +
             " (EMP.NAME, PROJ.PNO, PROJ.BUDGET) where EMP.DEPT = PROJ.DEPT"
             " and EMP.LEVEL >= " +
             std::to_string(1 + rev % 3);
  }
}

std::string ProbeText(int shape, const std::string& user) {
  switch (shape % 4) {
    case 0:
      return "retrieve (EMP.NAME, EMP.SALARY) as " + user;
    case 1:
      return "retrieve (EMP.NAME, EMP.DEPT, EMP.LEVEL) as " + user;
    case 2:
      return "retrieve (PROJ.PNO, PROJ.BUDGET) as " + user;
    default:
      return "retrieve (EMP.NAME, PROJ.BUDGET) where EMP.DEPT = PROJ.DEPT"
             " as " +
             user;
  }
}

TEST(CacheCoherenceTorture, RandomizedInterleavings) {
  constexpr int kViewSlots = 6;
  constexpr int kSteps = 320;

  Torture torture;
  ASSERT_TRUE(torture.Load(Schema()));

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<int> pick_user(0, kUserCount - 1);
  std::uniform_int_distribution<int> pick_slot(0, kViewSlots - 1);
  std::uniform_int_distribution<int> pick_shape(0, 3);
  std::uniform_int_distribution<int> salary(18000, 45000);

  // Bring every view slot up at revision 0 and seed a few grants so the
  // cache has entries to invalidate from the first mutation on.
  std::vector<int> revision(kViewSlots, 0);
  std::vector<bool> defined(kViewSlots, true);
  for (int slot = 0; slot < kViewSlots; ++slot) {
    ASSERT_TRUE(torture.Apply(ViewText(slot, 0)));
    ASSERT_TRUE(torture.Apply("permit V" + std::to_string(slot) + " to " +
                              kUsers[slot % kUserCount]));
  }
  // A view named after a base relation is one more view over EMP; it
  // must not hide EMP from the scopes of the other views' grants.
  ASSERT_TRUE(torture.Apply("view EMP (EMP.NAME)"));
  ASSERT_TRUE(torture.Apply("permit EMP to u7"));
  // A group grant so membership churn is part of the interleaving.
  ASSERT_TRUE(torture.Apply("permit V0 to staff"));
  ASSERT_TRUE(torture.Apply("member u6 of staff"));
  std::vector<bool> in_staff(kUserCount, false);
  in_staff[6] = true;

  int inserted = 0;
  for (int step = 0; step < kSteps; ++step) {
    const int roll = op(rng);
    const int slot = pick_slot(rng);
    const std::string view = "V" + std::to_string(slot);
    const std::string user = kUsers[pick_user(rng)];

    if (roll < 15) {  // permit
      if (defined[slot]) {
        ASSERT_TRUE(torture.Apply("permit " + view + " to " + user))
            << "step " << step;
      }
    } else if (roll < 27) {  // deny
      if (defined[slot]) {
        ASSERT_TRUE(torture.Apply("deny " + view + " to " + user))
            << "step " << step;
      }
    } else if (roll < 42) {  // insert
      ++inserted;
      if (inserted % 2 == 0) {
        ASSERT_TRUE(torture.Apply(
            "insert into EMP values (n" + std::to_string(inserted) + ", " +
            (inserted % 3 == 0 ? "eng" : "sales") + ", " +
            std::to_string(salary(rng)) + ", " +
            std::to_string(1 + inserted % 4) + ")"))
            << "step " << step;
      } else {
        ASSERT_TRUE(torture.Apply(
            "insert into PROJ values (" + std::to_string(100 + inserted) +
            ", " + (inserted % 3 == 0 ? "ops" : "eng") + ", " +
            std::to_string(50000 + 1000 * inserted) + ")"))
            << "step " << step;
      }
    } else if (roll < 52) {  // view redefinition (drop + define)
      if (defined[slot]) {
        ASSERT_TRUE(torture.Apply("drop view " + view)) << "step " << step;
        defined[slot] = false;
      } else {
        ++revision[slot];
        ASSERT_TRUE(torture.Apply(ViewText(slot, revision[slot])))
            << "step " << step;
        defined[slot] = true;
      }
    } else if (roll < 60) {  // group membership churn
      const int member = pick_user(rng);
      if (in_staff[member]) {
        ASSERT_TRUE(
            torture.Apply(std::string("unmember ") + kUsers[member] +
                          " of staff"))
            << "step " << step;
        in_staff[member] = false;
      } else {
        ASSERT_TRUE(torture.Apply(std::string("member ") + kUsers[member] +
                                  " of staff"))
            << "step " << step;
        in_staff[member] = true;
      }
    }
    // else: pure retrieve step — the probes below are the retrieve.

    // After EVERY step the cached engine must agree with the cold
    // oracle: once as the (possibly) affected user, once as an
    // unrelated user whose entries should have been retained.
    ASSERT_TRUE(torture.Probe(ProbeText(pick_shape(rng), user)))
        << "step " << step;
    ASSERT_TRUE(torture.Probe(ProbeText(pick_shape(rng),
                                        kUsers[pick_user(rng)])))
        << "step " << step;
    if (HasFatalFailure()) return;
  }

  // The torture is only meaningful if the probes actually executed, the
  // cache actually served hits, and the selective path actually
  // processed targeted events.
  EXPECT_GE(torture.successful_probes(), kSteps);
  const AuthzStats stats = torture.cached().authz_stats();
  EXPECT_GT(stats.mask_hits, 0);
  EXPECT_GT(stats.invalidations_exact, 0);
  EXPECT_GT(stats.entries_retained, 0);
  EXPECT_GT(stats.entries_invalidated, 0);
}

// A focused deterministic interleaving around the highest-risk
// transitions: redefinition of a view a user's cached mask embeds,
// membership-driven grant changes, and cross-user retention, beside a
// view named after the relation EMP.
TEST(CacheCoherenceTorture, DirectedRedefinitionAndMembership) {
  Torture torture;
  ASSERT_TRUE(torture.Load(Schema()));
  ASSERT_TRUE(torture.Apply("view EMP (EMP.NAME)"));
  ASSERT_TRUE(torture.Apply("permit EMP to u2"));
  ASSERT_TRUE(torture.Apply(
      "view SAL (EMP.NAME, EMP.SALARY) where EMP.SALARY >= 25000"));
  ASSERT_TRUE(torture.Apply("view PB (PROJ.PNO, PROJ.BUDGET)"));
  ASSERT_TRUE(torture.Apply("permit SAL to u0"));
  ASSERT_TRUE(torture.Apply("permit PB to crew"));
  ASSERT_TRUE(torture.Apply("member u1 of crew"));

  const std::string q_emp = "retrieve (EMP.NAME, EMP.SALARY) as u0";
  const std::string q_proj_u1 = "retrieve (PROJ.PNO, PROJ.BUDGET) as u1";
  const std::string q_proj_u2 = "retrieve (PROJ.PNO, PROJ.BUDGET) as u2";

  // Warm the cache for all three, then mutate around them.
  ASSERT_TRUE(torture.Probe(q_emp));
  ASSERT_TRUE(torture.Probe(q_proj_u1));
  ASSERT_TRUE(torture.Probe(q_proj_u2));

  // Redefine SAL with a different threshold: u0's mask must change.
  ASSERT_TRUE(torture.Apply("drop view SAL"));
  ASSERT_TRUE(torture.Probe(q_emp));
  ASSERT_TRUE(torture.Apply(
      "view SAL (EMP.NAME, EMP.SALARY) where EMP.SALARY >= 40000"));
  ASSERT_TRUE(torture.Apply("permit SAL to u0"));
  ASSERT_TRUE(torture.Probe(q_emp));

  // Membership churn: u1 leaves and rejoins crew; u2 joins late.
  ASSERT_TRUE(torture.Apply("unmember u1 of crew"));
  ASSERT_TRUE(torture.Probe(q_proj_u1));
  ASSERT_TRUE(torture.Apply("member u1 of crew"));
  ASSERT_TRUE(torture.Apply("member u2 of crew"));
  ASSERT_TRUE(torture.Probe(q_proj_u1));
  ASSERT_TRUE(torture.Probe(q_proj_u2));

  // Deny then re-permit, interleaved with inserts that must never
  // invalidate (the repeat probes ride the cache).
  ASSERT_TRUE(torture.Apply("deny PB to u1"));
  ASSERT_TRUE(torture.Probe(q_proj_u1));
  ASSERT_TRUE(torture.Apply("insert into PROJ values (9, eng, 500000)"));
  ASSERT_TRUE(torture.Probe(q_proj_u2));
  ASSERT_TRUE(torture.Apply("permit PB to u1"));
  ASSERT_TRUE(torture.Probe(q_proj_u1));

  EXPECT_GE(torture.successful_probes(), 10);
  const AuthzStats stats = torture.cached().authz_stats();
  EXPECT_GT(stats.mask_hits, 0);
  EXPECT_GT(stats.invalidations_exact, 0);
}

}  // namespace
}  // namespace viewauth
