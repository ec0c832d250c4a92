// The wire-level benchmark of the viewauth engine.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --scratch DIR [--plant-wrong-cell]
//
// Starts an in-process Server on loopback TCP and drives it with
// closed-loop Client sessions (one thread each), every one connected as
// the admin user and naming the requesting user with `as uK`. With
// --trace 0 it measures the end-to-end metrics and checks the delivered
// answers; with --trace 1 it makes the separate traced run that breaks a
// request down by layer (trace.cc). The last line of standard output is
// the result object. perfbench/run.py builds this binary and calls it;
// BENCHMARK.json at the repository root names the workloads and metrics.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using viewauth::DurableEngine;

// Set-up is repeated and its median reported, so that a slow first
// allocation or a scheduler hiccup does not decide setup_s.
constexpr int kSetupRepeats = 5;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string scratch;
  bool plant_wrong_cell = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-cell") {
      args->plant_wrong_cell = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->spec = FindWorkload(value);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return args->spec != nullptr && args->seconds >= 1 && args->seconds <= 600 &&
         args->trace >= 0 && !args->scratch.empty() &&
         (!args->plant_wrong_cell ||
          args->spec->kind == WorkloadKind::kPointHot);
}

// Reopens the log of a stopped mixed_write run and checks that every
// acknowledged insert and the last acknowledged state of every toggled
// grant survived, and that the recovered state dumps exactly like the
// live one. Returns the number of violations.
long long CheckDurability(Served& served, const std::vector<SessionLog>& logs,
                          int sessions) {
  auto live = served.engine().DumpScript();
  VIEWAUTH_CHECK(live.ok()) << live.status().ToString();
  served.server.reset();
  served.durable.reset();  // closes the log
  auto reopened = DurableEngine::Open(served.log_path);
  long long acked = 0;
  for (const SessionLog& log : logs) {
    acked += static_cast<long long>(log.mutations.size());
  }
  if (!reopened.ok()) {
    std::cerr << "durability: reopen failed: " << reopened.status().ToString()
              << "\n";
    return std::max<long long>(acked, 1);
  }
  viewauth::Engine& engine = (*reopened)->engine();
  long long violations = 0;
  auto recovered = engine.DumpScript();
  if (!recovered.ok() || *recovered != *live) {
    std::cerr << "durability: recovered state differs from the live state\n";
    ++violations;
  }
  auto rel = std::as_const(engine.db()).GetRelation("K");
  VIEWAUTH_CHECK(rel.ok()) << rel.status().ToString();
  const auto& by_key = (*rel)->IndexOn(0);
  std::vector<bool> granted(static_cast<size_t>(sessions), true);
  for (const SessionLog& log : logs) {
    for (const Op& op : log.mutations) {
      if (op.kind == OpKind::kInsert) {
        if (by_key.count(viewauth::Value::Int64(op.key)) == 0) {
          std::cerr << "durability: acknowledged " << op.text << " is lost\n";
          ++violations;
        }
      } else {
        granted[static_cast<size_t>(op.user)] = op.permit;
      }
    }
  }
  for (int p = 0; p < sessions; ++p) {
    const bool present = engine.catalog().IsPermitted(
        Dataset::UserName(p), Dataset::ToggleView(p));
    if (present != granted[static_cast<size_t>(p)]) {
      std::cerr << "durability: grant " << Dataset::ToggleView(p) << " to "
                << Dataset::UserName(p) << " is "
                << (present ? "present" : "absent") << " after reopen\n";
      ++violations;
    }
  }
  return violations;
}

// The measured run (--trace 0): the end-to-end metrics.
int RunMeasured(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  const Dataset data(spec.kind, args.seed);
  const std::string log_path = args.scratch + "/" + spec.name + ".log";
  Report report;

  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (served != nullptr) served->StopServing();
    served.reset();
    const auto start = Clock::now();
    served = SetUp(data, log_path, spec.sessions);
    setup_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
  }
  // The served state's footprint. Read before the sessions start: what
  // the run adds (audit entries, cache fills) grows with the number of
  // requests served, so a faster engine would read as a fatter one; the
  // traced run reports that growth per request instead.
  const double peak_rss_mb = ProcStatusMb("VmHWM");
  std::optional<Op> planted;
  if (args.plant_wrong_cell) planted = PlantWrongCell(served->engine(), data);

  std::vector<OpStream> streams;
  std::vector<OpStream*> stream_ptrs;
  streams.reserve(static_cast<size_t>(spec.sessions));
  for (int s = 0; s < spec.sessions; ++s) {
    streams.emplace_back(data, args.seed, s);
    stream_ptrs.push_back(&streams.back());
  }
  // Oracle samples: a deterministic share of each read session's
  // requests, capped so the canonical recomputation stays short.
  int stride = 0;
  int cap = 0;
  switch (spec.kind) {
    case WorkloadKind::kPointHot:
      stride = 97;
      cap = 64;
      break;
    case WorkloadKind::kJoinCold:
      stride = 7;
      cap = 24;
      break;
    case WorkloadKind::kScanLarge:
      stride = 11;
      cap = 8;
      break;
    case WorkloadKind::kMixedWrite:
      break;  // checked by the durability reopen instead
  }
  double wall_s = 0;
  std::vector<SessionLog> logs =
      RunSessions(*served, stream_ptrs, args.seconds, stride, cap, &wall_s);

  // Every session has joined: engine and server state are quiescent and
  // safe to read (the audit log in particular is appended to by
  // concurrent retrieves).
  viewauth::Engine& engine = served->engine();
  const viewauth::ServerStats server_stats = served->server->stats();
  const viewauth::AuthzStats authz = engine.authz_stats();
  const long long audit_entries = engine.audit_log().size();
  const long long snapshots_live = engine.snapshots_live();

  std::vector<double> retrieve_us;
  std::vector<double> write_us;
  std::vector<Sample> samples;
  long long attempted = 0;
  long long failed = 0;
  for (SessionLog& log : logs) {
    retrieve_us.insert(retrieve_us.end(), log.retrieve_us.begin(),
                       log.retrieve_us.end());
    write_us.insert(write_us.end(), log.write_us.begin(), log.write_us.end());
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    attempted += log.ops;
    failed += log.failed;
    if (!log.first_error.empty()) {
      std::cerr << "failed request: " << log.first_error << "\n";
    }
  }
  const long long completed = attempted - failed;
  if (planted.has_value()) {
    auto reply = served->clients[0]->Execute(planted->text);
    ++attempted;
    if (reply.ok()) {
      samples.push_back({planted->text, *reply, planted->key});
    } else {
      ++failed;
    }
  }
  served->StopServing();

  long long mismatches = 0;
  long long violations = 0;
  if (spec.kind == WorkloadKind::kMixedWrite) {
    violations = CheckDurability(*served, logs, spec.sessions);
  } else {
    mismatches = CheckWithOracle(data, samples);
  }
  failed += mismatches + violations;

  const size_t n = retrieve_us.size();
  const double tail = TailLevel(n);
  const std::string n_detail = "n=" + std::to_string(n);
  report.Metric("setup_s", Quantile(setup_s, 0.5), "s",
                "median of " + std::to_string(setup_s.size()) + " set-ups");
  report.Metric("throughput_rps", static_cast<double>(completed) / wall_s,
                "1/s",
                std::to_string(completed) + " completed in " +
                    std::to_string(wall_s) + " s, " +
                    std::to_string(spec.sessions) + " sessions");
  report.Metric("retrieve_p50_us", Quantile(retrieve_us, 0.5), "us", n_detail);
  report.Note("retrieve_p99_us = " + std::to_string(Quantile(retrieve_us, tail)) +
              " us  (" + n_detail + ", quantile " + std::to_string(tail) +
              "; a per-layer metric, see perfbench/README.md)");
  report.Metric("peak_rss_mb", peak_rss_mb, "MiB",
                "VmHWM after set-up, before the sessions start");
  if (!write_us.empty()) {
    report.Note("write_p50_us = " + std::to_string(Quantile(write_us, 0.5)) +
                " us  (n=" + std::to_string(write_us.size()) + ")");
    report.Note("write_p99_us = " +
                std::to_string(Quantile(write_us, TailLevel(write_us.size()))) +
                " us  (quantile " + std::to_string(TailLevel(write_us.size())) +
                ")");
  }
  report.Note("oracle: " + std::to_string(samples.size()) +
              " replies checked, " + std::to_string(mismatches) +
              " mismatched");
  if (spec.kind == WorkloadKind::kMixedWrite) {
    report.Note("durability: " + std::to_string(violations) +
                " violation(s) after reopening the log");
  }
  report.Note("failed_frac = " +
              std::to_string(static_cast<double>(failed) /
                             static_cast<double>(std::max(attempted, 1LL))) +
              "  (" + std::to_string(failed) + " of " +
              std::to_string(attempted) + ")");
  report.Note("quiesced: audit entries " + std::to_string(audit_entries) +
              ", snapshots live " + std::to_string(snapshots_live) +
              ", mask hits " + std::to_string(authz.mask_hits) + " / misses " +
              std::to_string(authz.mask_misses) + ", server " +
              std::to_string(server_stats.requests_ok) + " ok, " +
              std::to_string(server_stats.requests_error) + " error, " +
              std::to_string(server_stats.protocol_errors) +
              " protocol errors");
  report.Print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload "
                 "point_hot|join_cold|scan_large|mixed_write --seed N "
                 "--seconds S --trace 0|1 --scratch DIR "
                 "[--plant-wrong-cell (point_hot)]\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (ec) {
    std::cerr << "cannot create " << args.scratch << ": " << ec.message()
              << "\n";
    return 2;
  }
  return args.trace == 1
             ? perfbench::RunTraced(*args.spec, args.seed, args.seconds,
                                    args.scratch)
             : perfbench::RunMeasured(args);
}
