// PERF-9: group-commit throughput under concurrent mutators.
//
// W writer threads each push K single-row inserts through one
// DurableEngine whose filesystem charges a realistic fsync latency
// (tmpfs makes fsync nearly free, which would hide exactly the cost
// group commit exists to amortize). Each writer targets its own
// relation so the workload measures commit-path contention, not row
// contention. The identical workload runs twice through the one commit
// path: once with group_commit_max_batch = 1 (every mutation pays its
// own append + fsync) and once with the default cap (one append + one
// fsync per batch). The figure of merit is speedup = single_micros /
// grouped_micros per writer count; with one writer the two runs
// coincide (batches of one), and the gap opens as writers pile up
// behind the leader's fsync.
//
// Modes:
//   bench_groupcommit           writers 1/4/16; writes
//                               BENCH_groupcommit.json (run from the
//                               repo root of a Release build)
//   bench_groupcommit --smoke   16 writers only; exits 1 if group
//                               commit is not at least kMinSpeedup
//                               faster (the check.sh regression gate)
//   --sync-us N                 injected fsync latency (default 250)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/logging.h"
#include "engine/durable.h"

namespace viewauth {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kInsertsPerWriter = 100;

// The gate at 16 writers. It was 2x against a separate per-record
// commit path; the batch-of-one baseline that replaced that path runs
// the leader protocol for every mutation and measured 1.0-1.4x slower
// than it at 16 writers (4-vCPU VM, 250 us fsync), so the gate rose to
// 2.5x to stay no looser.
constexpr double kMinSpeedup = 2.5;

long long g_sync_us = 250;

// Charges a fixed latency per fsync, modelling a disk whose flush cost
// dominates the commit path the way it does outside tmpfs.
class SyncDelayFileSystem : public FileSystem {
 public:
  explicit SyncDelayFileSystem(FileSystem* base) : base_(base) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override {
    VIEWAUTH_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                              base_->NewWritableFile(path, mode));
    return std::unique_ptr<WritableFile>(
        std::make_unique<DelayedFile>(std::move(base)));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDirectoryOf(const std::string& path) override {
    return base_->SyncDirectoryOf(path);
  }

 private:
  class DelayedFile : public WritableFile {
   public:
    explicit DelayedFile(std::unique_ptr<WritableFile> base)
        : base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::microseconds(g_sync_us));
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
  };

  FileSystem* base_;
};

struct RunResult {
  long long micros = 0;
  DurableStats stats;
};

// Runs `writers` threads of kInsertsPerWriter inserts each, committing
// at most `max_batch` records per fsync, and returns the wall time of
// the mutation phase.
RunResult RunWriters(int writers, int max_batch) {
  const std::string path = "/tmp/viewauth_bench_groupcommit.log";
  std::remove(path.c_str());
  SyncDelayFileSystem fs(FileSystem::Default());
  DurableOptions options;
  options.fs = &fs;
  options.group_commit_max_batch = max_batch;
  auto durable = DurableEngine::Open(path, options);
  VIEWAUTH_CHECK(durable.ok()) << durable.status().ToString();
  for (int t = 0; t < writers; ++t) {
    auto created =
        (*durable)->Execute("relation W" + std::to_string(t) + " (A int key)");
    VIEWAUTH_CHECK(created.ok()) << created.status().ToString();
  }

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&durable, t] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        auto out = (*durable)
                       ->Execute("insert into W" + std::to_string(t) +
                                 " values (" + std::to_string(i) + ")");
        VIEWAUTH_CHECK(out.ok()) << out.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  RunResult result;
  result.micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - start)
                      .count();
  result.stats = (*durable)->stats();
  durable->reset();  // close the log before removing it
  std::remove(path.c_str());
  return result;
}

struct Comparison {
  int writers = 0;
  int mutations = 0;
  long long single_micros = 0;
  long long grouped_micros = 0;
  double speedup = 0;
  unsigned long long commit_batches = 0;
  double frames_per_batch = 0;
  unsigned long long fsyncs_saved = 0;
};

Comparison Measure(int writers) {
  Comparison c;
  c.writers = writers;
  c.mutations = writers * kInsertsPerWriter;
  c.single_micros = RunWriters(writers, /*max_batch=*/1).micros;
  const RunResult grouped =
      RunWriters(writers, DurableOptions{}.group_commit_max_batch);
  c.grouped_micros = grouped.micros;
  c.speedup = c.grouped_micros > 0
                  ? static_cast<double>(c.single_micros) /
                        static_cast<double>(c.grouped_micros)
                  : 0;
  // The setup DDL also commits in batches; its contribution (one batch
  // per relation, frames_per_batch 1) only dilutes the reported mean.
  c.commit_batches = static_cast<unsigned long long>(grouped.stats.commit_batches);
  c.frames_per_batch =
      grouped.stats.commit_batches > 0
          ? static_cast<double>(grouped.stats.batched_records) /
                static_cast<double>(grouped.stats.commit_batches)
          : 0;
  c.fsyncs_saved = static_cast<unsigned long long>(grouped.stats.fsyncs_saved);
  return c;
}

void Print(const Comparison& c) {
  std::cout << c.writers << " writer(s): " << c.mutations
            << " mutations, per-mutation-fsync=" << c.single_micros
            << "us group-commit=" << c.grouped_micros
            << "us speedup=" << c.speedup << "x (batches="
            << c.commit_batches << ", " << c.frames_per_batch
            << " frames/batch, " << c.fsyncs_saved << " fsyncs saved)\n";
}

int RunSmoke() {
  const Comparison c = Measure(/*writers=*/16);
  Print(c);
  if (c.speedup < kMinSpeedup) {
    std::cerr << "FAIL: group commit only " << c.speedup
              << "x faster than per-mutation fsync at 16 writers (>= "
              << kMinSpeedup << "x gate)\n";
    return 1;
  }
  if (c.fsyncs_saved == 0) {
    std::cerr << "FAIL: no fsyncs were saved — batching never engaged\n";
    return 1;
  }
  return 0;
}

void WriteJson(const std::string& path,
               const std::vector<Comparison>& rows) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"group-commit throughput vs per-mutation "
         "fsync\",\n"
      << "  \"workload\": {\"inserts_per_writer\": " << kInsertsPerWriter
      << ", \"sync_latency_us\": " << g_sync_us << "},\n"
      << "  \"baseline\": \"group_commit_max_batch = 1\",\n"
      << "  \"gate\": {\"writers\": 16, \"min_speedup\": " << kMinSpeedup
      << ", \"why\": \"raised from 2.0x when this batch-of-one baseline "
         "replaced a separate per-record commit path, which it trailed by "
         "1.0-1.4x at 16 writers\"},\n"
      << "  \"writer_counts\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Comparison& c = rows[i];
    out << "    {\n"
        << "      \"writers\": " << c.writers << ",\n"
        << "      \"mutations\": " << c.mutations << ",\n"
        << "      \"single_micros\": " << c.single_micros << ",\n"
        << "      \"grouped_micros\": " << c.grouped_micros << ",\n"
        << "      \"speedup\": " << c.speedup << ",\n"
        << "      \"commit_batches\": " << c.commit_batches << ",\n"
        << "      \"frames_per_batch\": " << c.frames_per_batch << ",\n"
        << "      \"fsyncs_saved\": " << c.fsyncs_saved << "\n"
        << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

int RunFull(const std::string& path) {
  std::vector<Comparison> rows;
  for (int writers : {1, 4, 16}) {
    rows.push_back(Measure(writers));
    Print(rows.back());
  }
  WriteJson(path, rows);
  const Comparison& wide = rows.back();
  if (wide.speedup < kMinSpeedup) {
    std::cerr << "FAIL: group commit only " << wide.speedup
              << "x faster than per-mutation fsync at 16 writers (>= "
              << kMinSpeedup << "x gate)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace viewauth

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--sync-us") == 0 && i + 1 < argc) {
      viewauth::g_sync_us = std::atoll(argv[i + 1]);
    }
  }
  return smoke ? viewauth::RunSmoke()
               : viewauth::RunFull("BENCH_groupcommit.json");
}
