// End-to-end tests for query resource governance: deadlines, row/byte
// budgets and cooperative cancellation threaded through all three data
// plans and the meta plan, admission control with graceful shedding, and
// the abort-cleanliness invariants (an aborted retrieve leaves no trace
// in the authorization cache and never degrades a durable engine).
//
// The adversarial workload is a genuine cross product: for N rows per
// side, A.X covers [0, N) and B.Y covers [N-10, N+N-10), joined on
// A.X > B.Y. No equality column exists, so every data plan must examine
// the full N^2-pair product, while the exact answer is always the 45
// pairs with X in (N-10, N) and Y < X.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/durable.h"
#include "engine/engine.h"

namespace viewauth {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRowsPerSide = 1000;
constexpr size_t kExpectedPairs = 45;
constexpr const char* kCrossQuery =
    "retrieve (A.X, B.Y) where A.X > B.Y as Brown";

// Builds the cross-product workload on `engine`: relations A and B,
// `rows` tuples each, and an unconditional two-relation view permitted
// to Brown so the mask grants the whole answer.
std::string CrossProductScript(int rows) {
  std::string script =
      "relation A (AK string key, X int)\n"
      "relation B (BK string key, Y int)\n";
  for (int i = 0; i < rows; ++i) {
    script += "insert into A values (a" + std::to_string(i) + ", " +
              std::to_string(i) + ")\n";
    script += "insert into B values (b" + std::to_string(i) + ", " +
              std::to_string(rows - 10 + i) + ")\n";
  }
  script +=
      "view AB (A.X, B.Y)\n"
      "permit AB to Brown\n";
  return script;
}

void LoadCrossProduct(Engine* engine, int rows = kRowsPerSide) {
  auto setup = engine->ExecuteScript(CrossProductScript(rows));
  ASSERT_TRUE(setup.ok()) << setup.status();
  engine->ResetAuthzStats();
}

struct PlanConfig {
  const char* name;
  bool optimized;
};

constexpr PlanConfig kPlans[] = {
    {"canonical", false},
    {"vectorized", true},
};

// A 1 ms deadline against the 10^6-pair product must abort well under a
// second on every data plan, and an immediate unlimited rerun must
// return the exact 45-row answer.
TEST(GovernorTest, DeadlineAbortsCrossProductOnAllPlans) {
  for (const PlanConfig& plan : kPlans) {
    SCOPED_TRACE(plan.name);
    Engine engine;
    LoadCrossProduct(&engine);
    engine.options().use_optimized_data_plan = plan.optimized;

    engine.options().deadline_ms = 1;
    const Clock::time_point start = Clock::now();
    auto governed = engine.Execute(kCrossQuery);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - start);
    ASSERT_FALSE(governed.ok()) << plan.name << " ignored the deadline";
    EXPECT_TRUE(governed.status().IsDeadlineExceeded()) << governed.status();
    EXPECT_LT(elapsed.count(), 1000)
        << plan.name << " took " << elapsed.count() << " ms to abort";

    engine.options().deadline_ms = 0;
    auto unlimited = engine.Retrieve(kCrossQuery);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status();
    EXPECT_EQ(unlimited->answer.size(), kExpectedPairs);

    const AuthzStats stats = engine.authz_stats();
    EXPECT_EQ(stats.deadline_exceeded, 1);
    EXPECT_EQ(stats.retrieves, 1);  // only the successful run is counted
    EXPECT_GE(stats.governor_checks, 1);
  }
}

TEST(GovernorTest, RowBudgetAborts) {
  Engine engine;
  LoadCrossProduct(&engine);
  engine.options().max_rows = 1000;

  auto out = engine.Execute(kCrossQuery);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted()) << out.status();
  EXPECT_EQ(engine.authz_stats().budget_exceeded, 1);

  engine.options().max_rows = 0;
  auto unlimited = engine.Retrieve(kCrossQuery);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();
  EXPECT_EQ(unlimited->answer.size(), kExpectedPairs);
}

TEST(GovernorTest, ByteBudgetAborts) {
  Engine engine;
  LoadCrossProduct(&engine);
  engine.options().max_bytes = 4096;

  auto out = engine.Execute(kCrossQuery);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted()) << out.status();
  EXPECT_EQ(engine.authz_stats().budget_exceeded, 1);
}

// Generous limits must not change the answer: a budgeted run that fits
// within its budgets matches the unlimited run bit for bit.
TEST(GovernorTest, BudgetedRunMatchesUnlimited) {
  Engine unlimited_engine;
  LoadCrossProduct(&unlimited_engine, 200);
  auto unlimited = unlimited_engine.Execute(kCrossQuery);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();

  Engine governed_engine;
  LoadCrossProduct(&governed_engine, 200);
  governed_engine.options().deadline_ms = 60000;
  governed_engine.options().max_rows = 10000000;
  governed_engine.options().max_bytes = 1LL << 32;
  auto governed = governed_engine.Execute(kCrossQuery);
  ASSERT_TRUE(governed.ok()) << governed.status();

  EXPECT_EQ(*unlimited, *governed);
  const AuthzStats stats = governed_engine.authz_stats();
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.budget_exceeded, 0);
  EXPECT_EQ(stats.retrieves, 1);
  // The same governed retrieve, structured.
  auto governed_result = governed_engine.Retrieve(kCrossQuery);
  ASSERT_TRUE(governed_result.ok()) << governed_result.status();
  EXPECT_EQ(governed_result->answer.size(), kExpectedPairs);
}

// The abort-cleanliness invariant: after a governed abort, every cache
// counter of the query's traffic (and the cache contents, observed
// through hit/miss behaviour) is identical to an engine where the
// retrieve never ran. The governor's own abort tally is the sole trace.
// The aborted retrieve's txn did catch the cache up to its snapshot —
// replaying the setup's grants moves invalidations_exact — but that is
// catalog work any retrieve would have done, so it is not compared.
TEST(GovernorTest, AbortedRetrieveLeavesNoTraceInCache) {
  Engine control;
  LoadCrossProduct(&control, 300);
  Engine subject;
  LoadCrossProduct(&subject, 300);

  subject.options().max_rows = 500;
  auto aborted = subject.Execute(kCrossQuery);
  ASSERT_FALSE(aborted.ok());
  ASSERT_TRUE(aborted.status().IsResourceExhausted()) << aborted.status();
  subject.options().max_rows = 0;

  {
    const AuthzStats s = subject.authz_stats();
    const AuthzStats c = control.authz_stats();
    EXPECT_EQ(s.retrieves, c.retrieves);
    EXPECT_EQ(s.prepared_hits, c.prepared_hits);
    EXPECT_EQ(s.prepared_misses, c.prepared_misses);
    EXPECT_EQ(s.mask_hits, c.mask_hits);
    EXPECT_EQ(s.mask_misses, c.mask_misses);
    EXPECT_EQ(s.mask_compiles, c.mask_compiles);
    EXPECT_EQ(s.entries_invalidated, c.entries_invalidated);
    EXPECT_EQ(s.meta_tuples_pruned, c.meta_tuples_pruned);
    EXPECT_EQ(s.budget_exceeded, 1);  // the abort itself is recorded
  }

  // Both engines now run the retrieve unmodified. If the abort had
  // leaked a partial mask or prepared relation into the subject's cache,
  // its hit/miss counters would diverge from the control's here.
  auto subject_out = subject.Execute(kCrossQuery);
  auto control_out = control.Execute(kCrossQuery);
  ASSERT_TRUE(subject_out.ok()) << subject_out.status();
  ASSERT_TRUE(control_out.ok()) << control_out.status();
  EXPECT_EQ(*subject_out, *control_out);
  {
    const AuthzStats s = subject.authz_stats();
    const AuthzStats c = control.authz_stats();
    EXPECT_EQ(s.retrieves, c.retrieves);
    EXPECT_EQ(s.prepared_hits, c.prepared_hits);
    EXPECT_EQ(s.prepared_misses, c.prepared_misses);
    EXPECT_EQ(s.mask_hits, c.mask_hits);
    EXPECT_EQ(s.mask_misses, c.mask_misses);
    EXPECT_EQ(s.mask_compiles, c.mask_compiles);
  }
}

// Cooperative cancellation: a retrieve grinding through the product is
// cancelled from another thread and aborts with Status::Cancelled.
TEST(GovernorTest, CancelActiveRetrievesAbortsInFlightQuery) {
  Engine engine;
  LoadCrossProduct(&engine);

  std::atomic<bool> done{false};
  Status observed = Status::OK();
  std::thread runner([&] {
    auto out = engine.Execute(kCrossQuery);
    observed = out.ok() ? Status::OK() : out.status();
    done = true;
  });

  int signalled = 0;
  while (!done.load()) {
    signalled = engine.CancelActiveRetrieves();
    if (signalled > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();

  if (signalled > 0) {
    EXPECT_TRUE(observed.IsCancelled()) << observed;
    EXPECT_EQ(engine.authz_stats().cancelled, 1);
  } else {
    // The retrieve finished before we could reach it; nothing to assert
    // beyond the run not having crashed. (Does not happen in practice:
    // the 10^6-pair product takes far longer than one poll interval.)
    EXPECT_TRUE(observed.ok()) << observed;
  }
}

// At 4x admission capacity, excess retrieves shed with Unavailable and
// the admission counters reconcile exactly:
//   attempts == admitted + shed + queue_timeouts.
TEST(GovernorTest, AdmissionShedsAtOverload) {
  Engine engine;
  LoadCrossProduct(&engine, 600);
  engine.options().max_concurrent = 2;
  engine.options().admission_queue = 2;
  engine.options().admission_timeout_ms = 20;

  constexpr int kClients = 8;  // 4x the admission capacity
  std::atomic<int> ok_count{0};
  std::atomic<int> unavailable{0};
  std::atomic<int> other_failures{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto out = engine.Execute(kCrossQuery);
      if (out.ok()) {
        ok_count.fetch_add(1);
      } else if (out.status().IsUnavailable()) {
        unavailable.fetch_add(1);
      } else {
        other_failures.fetch_add(1);
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  go = true;
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(other_failures.load(), 0);
  EXPECT_EQ(ok_count.load() + unavailable.load(), kClients);

  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.admission_attempts, kClients);
  EXPECT_EQ(stats.admitted + stats.shed + stats.queue_timeouts, kClients);
  EXPECT_EQ(stats.admitted, ok_count.load());
  EXPECT_EQ(stats.shed + stats.queue_timeouts, unavailable.load());
  // With 8 simultaneous arrivals, 2 slots and a 2-deep queue, at least
  // one client must have been turned away.
  EXPECT_GE(unavailable.load(), 1);
}

// A governed abort is a clean non-mutation for the durable engine: the
// log is untouched, the engine does not degrade, and both mutations and
// unlimited retrieves keep working afterwards.
TEST(GovernorTest, GovernedAbortNeverDegradesDurableEngine) {
  const std::string path =
      ::testing::TempDir() + "viewauth_governor_" +
      std::to_string(Clock::now().time_since_epoch().count()) + ".log";
  std::remove(path.c_str());

  auto opened = DurableEngine::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableEngine& durable = **opened;
  auto setup = durable.ExecuteScript(CrossProductScript(300));
  ASSERT_TRUE(setup.ok()) << setup.status();

  durable.engine().options().max_rows = 500;
  auto aborted = durable.Execute(kCrossQuery);
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsResourceExhausted()) << aborted.status();
  EXPECT_FALSE(durable.degraded()) << durable.degraded_reason();

  // The engine still accepts mutations (appended to the log) and serves
  // the full answer once the budget is lifted.
  auto insert = durable.Execute("insert into A values (extra, 5000)");
  ASSERT_TRUE(insert.ok()) << insert.status();
  durable.engine().options().max_rows = 0;
  auto unlimited = durable.engine().Retrieve(kCrossQuery);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();
  // The extra row (X = 5000) beats all 300 B.Y values, adding 300 pairs
  // to the standard 45.
  EXPECT_EQ(unlimited->answer.size(), kExpectedPairs + 300);

  std::remove(path.c_str());
}

// Stress: concurrent governed retrieves racing against cancellations
// under a tight deadline and bounded admission. Everything must finish,
// every failure must be a governed abort or an admission rejection, and
// the admission books must reconcile. Run under TSan/ASan by
// tools/check.sh. Limits are set once before the threads start —
// AuthorizationOptions itself is not synchronized.
TEST(GovernorTest, ConcurrentGovernedRetrievesStress) {
  Engine engine;
  LoadCrossProduct(&engine, 300);
  engine.options().max_concurrent = 3;
  engine.options().admission_queue = 4;
  engine.options().admission_timeout_ms = 200;
  engine.options().deadline_ms = 3;
  engine.options().max_rows = 60000;

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto out = engine.Execute(kCrossQuery);
        if (!out.ok() && !out.status().IsGovernedAbort() &&
            !out.status().IsUnavailable()) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  std::thread canceller([&] {
    for (int i = 0; i < 20; ++i) {
      engine.CancelActiveRetrieves();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : threads) t.join();
  canceller.join();

  EXPECT_EQ(unexpected.load(), 0);
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.admission_attempts,
            stats.admitted + stats.shed + stats.queue_timeouts);
  // A quiesced, unlimited retrieve still returns the exact answer.
  engine.options().max_concurrent = 0;
  engine.options().deadline_ms = 0;
  engine.options().max_rows = 0;
  auto out = engine.Retrieve(kCrossQuery);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->answer.size(), kExpectedPairs);
}

}  // namespace
}  // namespace viewauth
