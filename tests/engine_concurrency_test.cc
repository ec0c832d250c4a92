// Concurrent multi-session use of one Engine: reader threads retrieving
// as different users while a mutator thread flips grants and an insert
// thread loads rows. Exercises snapshot-isolated retrieves, the
// internally synchronized authorization cache, group-commit reader
// liveness and snapshot refcount hygiene (run under
// -DVIEWAUTH_SANITIZE=thread and address by tools/check.sh).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/durable.h"
#include "engine/engine.h"
#include "test_fs_util.h"

namespace viewauth {
namespace {

TEST(EngineConcurrencyTest, ConcurrentRetrievesMutationsAndInserts) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
    insert into EMPLOYEE values (Jones, manager, 26000)
    insert into EMPLOYEE values (Smith, technician, 22000)
    insert into EMPLOYEE values (Brown, engineer, 32000)
    view NAMES (EMPLOYEE.NAME)
    view ALL_E (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)
    permit NAMES to Brown
    permit NAMES to Klein
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  engine.ResetAuthzStats();

  constexpr int kRetrievesPerReader = 40;
  constexpr int kMutations = 20;
  constexpr int kInserts = 30;
  std::atomic<int> failures{0};

  auto reader = [&](const std::string& user) {
    for (int i = 0; i < kRetrievesPerReader; ++i) {
      auto out = engine.Execute(
          "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as " + user);
      if (!out.ok()) failures.fetch_add(1);
    }
  };
  // Grants flip while retrieves run; every retrieve must still be served
  // from a mask consistent with SOME serialization of the statements.
  auto mutator = [&] {
    for (int i = 0; i < kMutations; ++i) {
      auto permit = engine.Execute("permit ALL_E to Klein");
      if (!permit.ok()) failures.fetch_add(1);
      auto deny = engine.Execute("deny ALL_E to Klein");
      if (!deny.ok()) failures.fetch_add(1);
    }
  };
  auto inserter = [&] {
    for (int i = 0; i < kInserts; ++i) {
      auto out = engine.Execute("insert into EMPLOYEE values (w" +
                                std::to_string(i) + ", worker, " +
                                std::to_string(20000 + i) + ")");
      if (!out.ok()) failures.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader, "Brown");
  threads.emplace_back(reader, "Klein");
  threads.emplace_back(mutator);
  threads.emplace_back(inserter);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, 2 * kRetrievesPerReader);
  EXPECT_EQ(stats.mask_hits + stats.mask_misses, stats.retrieves);

  // Quiesced state: Klein's grant cycle ended on deny, so Klein is back
  // to NAMES only; the final masks are consistent.
  auto quiesced =
      engine.Retrieve("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) as Klein");
  ASSERT_TRUE(quiesced.ok()) << quiesced.status();
  EXPECT_FALSE(quiesced->full_access);
  EXPECT_FALSE(quiesced->denied);
  // All inserted rows are present.
  ASSERT_TRUE(engine.db().GetRelation("EMPLOYEE").ok());
  EXPECT_EQ((*engine.db().GetRelation("EMPLOYEE"))->size(), 3 + kInserts);
}

TEST(EngineConcurrencyTest, ConcurrentRetrievesShareTheCache) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation PROJECT (NUMBER string key, SPONSOR string, BUDGET int)
    insert into PROJECT values (bq-45, Acme, 300000)
    insert into PROJECT values (sv-72, Apex, 450000)
    view PS (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.BUDGET >= 200000
    permit PS to Brown
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  engine.ResetAuthzStats();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto out = engine.Execute(
            "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) as Brown");
        if (!out.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const AuthzStats stats = engine.authz_stats();
  EXPECT_EQ(stats.retrieves, kThreads * kPerThread);
  // No mutations ran: at most a handful of concurrent first-misses, and
  // everything after is served from the shared mask cache.
  EXPECT_GE(stats.mask_hits, stats.retrieves - kThreads);
  EXPECT_EQ(stats.entries_invalidated, 0);
}

// Guarded writes append to the audit log under the state mutex while
// retrieves append outside it; the log must serialize both itself. Every
// decision lands exactly once, numbered 1..2K without a gap or a repeat.
TEST(EngineConcurrencyTest, GuardedWritesAndRetrievesShareOneAuditLog) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation T (A int key)
    view VT (T.A)
    permit VT to u
    permit VT to u for insert
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  ASSERT_EQ(engine.audit_log().size(), 0);

  constexpr int kStatements = 200;
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kStatements; ++i) {
      auto out = engine.Execute("insert into T values (" + std::to_string(i) +
                                ") as u");
      if (!out.ok()) failures.fetch_add(1);
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < kStatements; ++i) {
      auto out = engine.Execute("retrieve (T.A) as u");
      if (!out.ok()) failures.fetch_add(1);
    }
  });
  writer.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(engine.audit_log().size(), 2 * kStatements);
  const std::vector<AuditEntry> entries = engine.audit_log().entries();
  std::vector<long long> sequences;
  int inserts = 0;
  for (const AuditEntry& entry : entries) {
    sequences.push_back(entry.sequence);
    if (entry.outcome == AuditOutcome::kInsertAllowed) ++inserts;
  }
  EXPECT_EQ(inserts, kStatements);
  std::sort(sequences.begin(), sequences.end());
  for (int i = 0; i < 2 * kStatements; ++i) {
    ASSERT_EQ(sequences[static_cast<size_t>(i)], i + 1);
  }
}

// Each retrieve hands its caller that request's own result: concurrent
// sessions with different grants never see each other's answers, flags
// or permits.
TEST(EngineConcurrencyTest, ConcurrentRetrievesReturnTheirOwnResults) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation PROJECT (NUMBER string key, SPONSOR string, BUDGET int)
    insert into PROJECT values (p1, Acme, 100000)
    insert into PROJECT values (p2, Apex, 400000)
    insert into PROJECT values (p3, Acme, 250000)
    view PSA (PROJECT.NUMBER, PROJECT.SPONSOR) where PROJECT.SPONSOR = Acme
    view ALL_P (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
    permit PSA to Brown
    permit ALL_P to Klein
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();

  struct Observed {
    int rows = 0;
    bool denied = false;
    bool full_access = false;
    std::vector<std::string> permits;
    bool operator==(const Observed& other) const {
      return rows == other.rows && denied == other.denied &&
             full_access == other.full_access && permits == other.permits;
    }
  };
  auto observe = [&](const std::string& user) -> std::optional<Observed> {
    auto result = engine.Retrieve(
        "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) as " + user);
    if (!result.ok()) return std::nullopt;
    Observed observed;
    observed.rows = result->answer.size();
    observed.denied = result->denied;
    observed.full_access = result->full_access;
    for (const InferredPermit& permit : result->permits()) {
      observed.permits.push_back(permit.ToString());
    }
    return observed;
  };

  // Sequential references: Brown sees the two Acme rows under a permit,
  // Klein sees all three rows with full access.
  const std::optional<Observed> brown = observe("Brown");
  const std::optional<Observed> klein = observe("Klein");
  ASSERT_TRUE(brown.has_value() && klein.has_value());
  EXPECT_EQ(brown->rows, 2);
  EXPECT_FALSE(brown->full_access);
  EXPECT_FALSE(brown->permits.empty());
  EXPECT_EQ(klein->rows, 3);
  EXPECT_TRUE(klein->full_access);
  EXPECT_TRUE(klein->permits.empty());

  constexpr int kPerThread = 100;
  std::atomic<int> mismatches{0};
  auto session = [&](const std::string& user, const Observed& want) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::optional<Observed> got = observe(user);
      if (!got.has_value() || !(*got == want)) mismatches.fetch_add(1);
    }
  };
  std::thread brown_session(session, "Brown", *brown);
  std::thread klein_session(session, "Klein", *klein);
  brown_session.join();
  klein_session.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A retrieve must never block behind a mutation batch parked on a slow
// fsync — readers run against the published snapshot, lock-free — and
// must never see the staged (not-yet-durable) mutation.
TEST(EngineConcurrencyTest, ReadersProgressWhileBatchFsyncBlocks) {
  const std::string path = ::testing::TempDir() + "viewauth_liveness.log";
  std::remove(path.c_str());
  GateFileSystem gate(FileSystem::Default());
  DurableOptions options;
  options.fs = &gate;
  auto durable = DurableEngine::Open(path, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  for (const char* stmt : {"relation T (A int)", "insert into T values (1)",
                           "view VT (T.A)", "permit VT to u"}) {
    ASSERT_TRUE((*durable)->Execute(stmt).ok()) << stmt;
  }

  // Park a mutation batch at its fsync.
  gate.CloseGate();
  std::thread writer([&] {
    EXPECT_TRUE((*durable)->Execute("insert into T values (42)").ok());
  });
  gate.AwaitWaiter();

  // Retrieves complete while the batch is parked, and the staged insert
  // is invisible: only the durable row is delivered.
  for (int i = 0; i < 8; ++i) {
    auto out = (*durable)->Execute("retrieve (T.A) as u");
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_NE(out->find("| 1 |"), std::string::npos);
    EXPECT_EQ(out->find("42"), std::string::npos);
  }

  gate.OpenGate();
  writer.join();
  auto after = (*durable)->Execute("retrieve (T.A) as u");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("| 42 |"), std::string::npos);
  EXPECT_GE((*durable)->stats().commit_batches, 1u);
  std::remove(path.c_str());
}

// Aborted and cancelled retrieves must drop their snapshot pins: after
// everything unwinds, exactly one engine-state version is alive (the
// leak check ASan backs up at the allocation level).
TEST(EngineConcurrencyTest, AbortedAndCancelledRetrievesReleaseSnapshots) {
  Engine engine;
  auto setup = engine.ExecuteScript(R"(
    relation T (A int key)
    insert into T values (1)
    insert into T values (2)
    insert into T values (3)
    view VT (T.A)
    permit VT to u
  )");
  ASSERT_TRUE(setup.ok()) << setup.status();
  EXPECT_EQ(engine.snapshots_live(), 1);

  // Deterministic governor abort: a row budget the data plan must blow.
  engine.options().max_rows = 1;
  EXPECT_FALSE(engine.Execute("retrieve (T.A) as u").ok());
  engine.options().max_rows = 0;
  EXPECT_EQ(engine.snapshots_live(), 1);

  // Cooperative cancellation of one retrieve known to be in flight. Its
  // self-product of W has 4,000,000 rows, which two contradictory
  // conditions then filter to none: governor probes throughout, and a
  // run long enough (about 0.1 s unoptimized, uncancelled) that the
  // polling below finds it registered. CancelActiveRetrieves reports
  // how many retrieves it signalled, so the test knows the signal
  // reached this one.
  std::string load = "relation W (A int)\n";
  for (int i = 0; i < 2000; ++i) {
    load += "insert into W values (" + std::to_string(i) + ")\n";
  }
  load += "view VW (W.A)\npermit VW to u\n";
  ASSERT_TRUE(engine.ExecuteScript(load).ok());
  EXPECT_EQ(engine.snapshots_live(), 1);
  std::atomic<bool> done{false};
  Result<std::string> out = std::string();
  std::thread reader([&] {
    out = engine.Execute(
        "retrieve (W.A, W:2.A) where W.A < W:2.A and W:2.A < W.A as u");
    done.store(true);
  });
  int signalled = 0;
  while (signalled == 0 && !done.load()) {
    signalled = engine.CancelActiveRetrieves();
    std::this_thread::yield();
  }
  reader.join();
  EXPECT_EQ(signalled, 1);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCancelled()) << out.status();

  // Everything unwound: one live state, and the engine still works.
  EXPECT_EQ(engine.snapshots_live(), 1);
  ASSERT_TRUE(engine.Execute("insert into T values (4)").ok());
  ASSERT_TRUE(engine.Execute("retrieve (T.A) as u").ok());
  EXPECT_EQ(engine.snapshots_live(), 1);
}

}  // namespace
}  // namespace viewauth
