// PERF-7: the execution governor's overhead and the admission
// controller's shedding behaviour.
//
// Overhead: the full Retrieve pipeline on the reference workload (a
// 2-relation 512-row join), ungoverned versus
// governed with generous limits that never trip. The governed run pays
// for budget accounting and amortized wall-clock probes on every data
// and meta loop; the gate requires that cost to stay within 2%.
//
// Shedding: an engine capped at 2 concurrent retrieves with a 2-deep
// admission queue, hit by 8 clients at once (4x capacity). The excess
// must shed with Unavailable while the admission counters reconcile:
// attempts == admitted + shed + queue_timeouts.
//
// Modes:
//   bench_governor           overhead + shedding report; writes
//                            BENCH_governor.json (run from the repo root
//                            of a Release build)
//   bench_governor --smoke   overhead gate only; exits 1 if governing a
//                            non-tripping retrieve costs more than 2%
//                            (the check.sh regression gate)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/engine.h"

namespace viewauth {
namespace {

using bench_util::MakeWorkload;
using bench_util::Workload;
using Clock = std::chrono::steady_clock;

constexpr const char* kTwoRelQuery =
    "retrieve (R0.KEY, R0.A, R1.B) where R0.KEY = R1.KEY and R0.A >= 150";

// Generous limits: governed accounting runs on every loop, but nothing
// ever trips.
AuthorizationOptions GovernedOptions() {
  AuthorizationOptions options;
  options.deadline_ms = 600000;
  options.max_rows = 1LL << 40;
  options.max_bytes = 1LL << 50;
  return options;
}

// Wall time of one batch of `iterations` full Retrieve calls.
long long TimeBatch(const Workload& w, const ConjunctiveQuery& query,
                    const AuthorizationOptions& options, int iterations) {
  long long sink = 0;
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto result = w.authorizer->Retrieve("u", query, options);
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
    sink += static_cast<long long>(result->answer.size());
  }
  const long long micros =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count();
  if (sink < 0) std::cerr << sink;  // keep the loop observable
  return micros;
}

// One round of `iterations` retrieves per mode, alternating mode every
// single call and accumulating each mode's time separately. A noise
// burst (scheduler preemption, page-cache work) lasting longer than one
// ~200us retrieve therefore lands on both modes in nearly equal shares
// instead of falling wholesale into one mode's batch.
struct RoundTimes {
  long long ungoverned_micros = 0;
  long long governed_micros = 0;
};

RoundTimes TimeRoundInterleaved(const Workload& w,
                                const ConjunctiveQuery& query,
                                const AuthorizationOptions& plain_options,
                                const AuthorizationOptions& governed_options,
                                int iterations, bool governed_first) {
  RoundTimes times;
  long long sink = 0;
  for (int i = 0; i < 2 * iterations; ++i) {
    const bool governed = (i % 2 == 0) == governed_first;
    const AuthorizationOptions& options =
        governed ? governed_options : plain_options;
    const auto start = Clock::now();
    auto result = w.authorizer->Retrieve("u", query, options);
    const long long micros =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count();
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
    sink += static_cast<long long>(result->answer.size());
    (governed ? times.governed_micros : times.ungoverned_micros) += micros;
  }
  if (sink < 0) std::cerr << sink;  // keep the loop observable
  return times;
}

struct OverheadReport {
  long long ungoverned_micros = 0;  // fastest batch
  long long governed_micros = 0;    // fastest batch
  double overhead_pct = 0;          // median of per-round governed/plain
};

OverheadReport MeasureOverhead(int iterations, int repeats) {
  // One shared workload for both modes: the modes differ only in the
  // options they pass, so they run against byte-identical data
  // structures and warm caches. (Two instances would differ by a few
  // percent from allocation layout alone, a per-process bias that no
  // amount of repetition averages away.)
  auto w = MakeWorkload(/*relations=*/2, /*rows=*/512,
                        /*views_per_relation=*/2, /*join_views=*/true);
  ConjunctiveQuery query = w->Query(kTwoRelQuery);

  // Warmup both (lazy indexes + mask caches). Each round interleaves
  // the two modes call by call, so noise bursts hit both modes alike;
  // the median ratio over all rounds discards outlier rounds entirely.
  // The starting mode alternates per round to cancel any residual
  // position bias within the interleave.
  const AuthorizationOptions plain_options{};
  const AuthorizationOptions governed_options = GovernedOptions();
  TimeBatch(*w, query, plain_options, 1);
  TimeBatch(*w, query, governed_options, 1);
  OverheadReport report;
  report.ungoverned_micros = -1;
  report.governed_micros = -1;
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const RoundTimes times = TimeRoundInterleaved(
        *w, query, plain_options, governed_options, iterations,
        /*governed_first=*/r % 2 == 0);
    const long long u = times.ungoverned_micros;
    const long long g = times.governed_micros;
    if (u > 0) ratios.push_back(static_cast<double>(g) / u);
    if (report.ungoverned_micros < 0 || u < report.ungoverned_micros) {
      report.ungoverned_micros = u;
    }
    if (report.governed_micros < 0 || g < report.governed_micros) {
      report.governed_micros = g;
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const double median =
      ratios.empty()
          ? 1.0
          : (ratios.size() % 2 == 1
                 ? ratios[ratios.size() / 2]
                 : (ratios[ratios.size() / 2 - 1] + ratios[ratios.size() / 2]) /
                       2.0);
  report.overhead_pct = 100.0 * (median - 1.0);
  return report;
}

struct SheddingReport {
  int clients = 0;
  int ok = 0;
  int unavailable = 0;
  int other = 0;
  AuthzStats stats;
};

// 8 clients against a capacity of 2 + a 2-deep queue: 4x overload.
SheddingReport MeasureShedding() {
  Engine engine;
  std::string script =
      "relation A (AK string key, X int)\n"
      "relation B (BK string key, Y int)\n";
  constexpr int kRows = 400;
  for (int i = 0; i < kRows; ++i) {
    script += "insert into A values (a" + std::to_string(i) + ", " +
              std::to_string(i) + ")\n";
    script += "insert into B values (b" + std::to_string(i) + ", " +
              std::to_string(kRows - 10 + i) + ")\n";
  }
  script += "view AB (A.X, B.Y)\npermit AB to Brown\n";
  auto setup = engine.ExecuteScript(script);
  VIEWAUTH_CHECK(setup.ok()) << setup.status().ToString();
  engine.ResetAuthzStats();
  engine.options().max_concurrent = 2;
  engine.options().admission_queue = 2;
  engine.options().admission_timeout_ms = 20;

  SheddingReport report;
  report.clients = 8;
  std::atomic<int> ok{0}, unavailable{0}, other{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < report.clients; ++i) {
    clients.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto out =
          engine.Execute("retrieve (A.X, B.Y) where A.X > B.Y as Brown");
      if (out.ok()) {
        ok.fetch_add(1);
      } else if (out.status().IsUnavailable()) {
        unavailable.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  while (ready.load() < report.clients) std::this_thread::yield();
  go = true;
  for (std::thread& t : clients) t.join();
  report.ok = ok.load();
  report.unavailable = unavailable.load();
  report.other = other.load();
  report.stats = engine.authz_stats();
  return report;
}

int RunSmoke() {
  const OverheadReport report =
      MeasureOverhead(/*iterations=*/20, /*repeats=*/48);
  std::cout << "smoke: ungoverned=" << report.ungoverned_micros
            << "us governed=" << report.governed_micros
            << "us overhead=" << report.overhead_pct << "%\n";
  if (report.overhead_pct > 2.0) {
    std::cerr << "FAIL: governing a non-tripping retrieve costs "
              << report.overhead_pct << "% (> 2% gate)\n";
    return 1;
  }
  return 0;
}

int RunFull(const std::string& path) {
  const OverheadReport overhead =
      MeasureOverhead(/*iterations=*/20, /*repeats=*/48);
  std::cout << "overhead: ungoverned=" << overhead.ungoverned_micros
            << "us governed=" << overhead.governed_micros
            << "us overhead=" << overhead.overhead_pct << "%\n";

  const SheddingReport shed = MeasureShedding();
  std::cout << "shedding: clients=" << shed.clients << " ok=" << shed.ok
            << " unavailable=" << shed.unavailable
            << " (attempts=" << shed.stats.admission_attempts
            << " admitted=" << shed.stats.admitted
            << " queued=" << shed.stats.queued << " shed=" << shed.stats.shed
            << " queue_timeouts=" << shed.stats.queue_timeouts << ")\n";
  const bool reconciles =
      shed.stats.admission_attempts ==
      shed.stats.admitted + shed.stats.shed + shed.stats.queue_timeouts;

  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"execution governor overhead + admission "
         "shedding\",\n"
      << "  \"overhead\": {\n"
      << "    \"workload\": {\"relations\": 2, \"rows\": 512, "
         "\"views_per_relation\": 2, \"join_views\": true},\n"
      << "    \"query\": \"" << kTwoRelQuery << "\",\n"
      << "    \"ungoverned_total_micros\": " << overhead.ungoverned_micros
      << ",\n"
      << "    \"governed_total_micros\": " << overhead.governed_micros
      << ",\n"
      << "    \"overhead_pct\": " << overhead.overhead_pct << ",\n"
      << "    \"gate_pct\": 2.0\n"
      << "  },\n"
      << "  \"shedding\": {\n"
      << "    \"clients\": " << shed.clients << ",\n"
      << "    \"max_concurrent\": 2,\n"
      << "    \"admission_queue\": 2,\n"
      << "    \"ok\": " << shed.ok << ",\n"
      << "    \"unavailable\": " << shed.unavailable << ",\n"
      << "    \"other_failures\": " << shed.other << ",\n"
      << "    \"attempts\": " << shed.stats.admission_attempts << ",\n"
      << "    \"admitted\": " << shed.stats.admitted << ",\n"
      << "    \"queued\": " << shed.stats.queued << ",\n"
      << "    \"shed\": " << shed.stats.shed << ",\n"
      << "    \"queue_timeouts\": " << shed.stats.queue_timeouts << ",\n"
      << "    \"counters_reconcile\": " << (reconciles ? "true" : "false")
      << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << path << "\n";
  if (!reconciles) {
    std::cerr << "FAIL: admission counters do not reconcile\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace viewauth

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return viewauth::RunSmoke();
    }
  }
  return viewauth::RunFull("BENCH_governor.json");
}
