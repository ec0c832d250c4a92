// DurableEngine: an Engine whose state survives restarts and crashes.
//
// Every successfully executed *mutating* statement (relation / insert /
// view / permit / deny / delete / modify / drop / member) is appended to
// a statement log before the result is acknowledged. Opening the same
// path replays the log through a fresh engine, reproducing the state.
// Retrieves and analyzes are not logged (they do not change state; the
// audit log covers them).
//
// Log format
//   Framed V3, the only format this version appends: the file starts
//   with the magic line "#viewauth-log v3", followed by framed records
//   and batch commit markers:
//
//       @<seq> <payload-length> <crc32-hex>\n
//       <normalized statement text>\n
//       ...
//       =<first-seq> <last-seq> <crc32-hex>\n
//
//   `seq` increases by exactly 1 per record and the CRC32 covers the
//   payload bytes, so torn tails, bit flips, and lost records are all
//   detected on replay. Records are *provisional* until a commit marker
//   covering them appears: the marker's CRC32 covers "<first> <last>",
//   and recovery replays only marker-covered records. A batch that
//   crashed mid-append — partial record, records without their marker,
//   torn marker — is an uncommitted tail: fatal in kStrict, truncated
//   to the last committed boundary in kSalvage.
//
//   Older logs are inputs only. Framed V2 (the same records without
//   markers, each committed individually) and legacy V1 plain text (one
//   normalized statement per line, what Engine::DumpScript emits) replay
//   under the same strict/salvage rules; Open then rewrites the log as
//   framed V3 through the compaction rewrite below, before the first
//   append.
//
// Group commit
//   Every mutation commits through one protocol. The first waiter
//   becomes the batch leader, waits a bounded straggler window for
//   followers, then writes every staged frame plus the commit marker
//   with a single append and a single fsync, and acknowledges only
//   after it. A batch never holds more than group_commit_max_batch
//   records; a cap of 1 is one append + one fsync per mutation.
//   Followers block until their batch resolves. If the append or fsync
//   fails the *whole batch* aborts: every waiter gets
//   Status::Unavailable, the staged engine state rolls back, and the
//   engine enters degraded mode — no acknowledged-then-lost commit, in
//   either direction. Retrieves never touch the commit path: they pin
//   the engine's published snapshot and run lock-free even while a
//   batch is parked on a slow fsync.
//
// Recovery
//   Open() takes a RecoveryMode. kStrict fails on any damage. kSalvage
//   truncates a torn or corrupt *tail* (the classic crash-during-append
//   shape), replays the valid prefix, and reports what was dropped in a
//   RecoveryReport; corruption in the *middle* of the log — damage
//   followed by further valid records — is fatal in both modes, because
//   dropping interior records would silently change the catalog.
//
// Fail-stop
//   If a batch commit (append or fsync) fails, the engine rolls its
//   in-memory state back to the durable prefix and enters a read-only
//   degraded state: the failed batch is NOT visible as committed,
//   further mutations and compactions return Status::Unavailable, and
//   retrieves keep working against the last durable snapshot.
//
// Compaction
//   Compact() quiesces the commit queue (waits for the in-flight batch
//   and drains staged frames; mutations arriving mid-compaction block),
//   then rewrites the log: it dumps the current state as framed V3 into
//   `<path>.tmp`, fsyncs it, atomically renames it over the log (the
//   rename fsyncs the directory), and reopens the append handle. On any
//   failure before the rename commits, the original log and the open
//   append handle are left untouched, so the engine remains fully
//   usable. Open uses the same rewrite to upgrade a V2 or legacy log; a
//   failure there fails the Open and leaves the original log
//   byte-identical.

#ifndef VIEWAUTH_ENGINE_DURABLE_H_
#define VIEWAUTH_ENGINE_DURABLE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/result.h"
#include "engine/engine.h"

namespace viewauth {

// The format Open found (RecoveryReport::format); the log is framed V3
// once Open succeeds.
enum class LogFormat {
  kLegacyText,  // plain statement-per-line (pre-V2)
  kFramedV2,    // magic header + framed, checksummed records
  kFramedV3,    // framed records + batch commit markers (group commit)
};

std::string_view LogFormatToString(LogFormat format);

enum class RecoveryMode {
  // Any damage — torn tail, checksum mismatch, sequence gap, uncommitted
  // batch tail — fails Open.
  kStrict,
  // A damaged tail is truncated and reported; the valid prefix replays.
  // Mid-log corruption (valid records after the damage) is still fatal.
  kSalvage,
};

// What Open() found and did while replaying the log.
struct RecoveryReport {
  // The format found; anything but V3 was rewritten as framed V3.
  LogFormat format = LogFormat::kFramedV3;
  // True when salvage dropped a damaged tail (always false in kStrict:
  // damage fails the open instead).
  bool salvaged = false;
  uint64_t records_replayed = 0;
  // Sequence number of the last valid committed record (framed logs).
  uint64_t last_good_seq = 0;
  uint64_t dropped_records = 0;
  uint64_t dropped_bytes = 0;
  // Human-readable description of the damage, empty for a clean open.
  std::string detail;

  std::string ToString() const;
};

// Counters surfaced by the REPL's \stats command.
struct DurableStats {
  bool degraded = false;
  uint64_t appends = 0;
  uint64_t append_bytes = 0;
  uint64_t compactions = 0;
  // Bytes of the log known to be durable (the append offset).
  uint64_t log_bytes = 0;
  // Group-commit batches fsynced (each is one append + one fsync).
  uint64_t commit_batches = 0;
  // Mutations committed through those batches; frames_per_batch in the
  // rendered stats is batched_records / commit_batches.
  uint64_t batched_records = 0;
  // Fsyncs avoided relative to one-fsync-per-mutation.
  uint64_t fsyncs_saved = 0;
  // Whole-batch aborts (fsync failure → every waiter Unavailable).
  uint64_t batch_aborts = 0;
  // Transient-fault self-healing: commit append/fsync failures retried,
  // and commits that succeeded only thanks to a retry.
  uint64_t transient_retries = 0;
  uint64_t transient_recoveries = 0;
  // Engine-state versions currently alive (head + published + pinned).
  long long snapshots_live = 0;
  RecoveryReport recovery;

  std::string ToString() const;
};

struct DurableOptions {
  RecoveryMode recovery = RecoveryMode::kStrict;
  // Defaults to FileSystem::Default(); tests inject faults here. The
  // filesystem must outlive the engine.
  FileSystem* fs = nullptr;
  // How long a batch leader waits for stragglers to join before
  // sealing, and the hard cap on records per batch (1 = one append +
  // one fsync per mutation, the baseline the group-commit bench
  // compares against).
  long long group_commit_window_us = 50;
  int group_commit_max_batch = 128;
  // Transient-fault self-healing: how many times a failed commit append
  // or fsync is retried before the engine fail-stops into degraded
  // mode. Each retry clips the log back to the durable prefix (so a
  // torn append or a page an fsync failure dropped from cache cannot
  // linger), backs off exponentially, and re-appends the whole commit.
  // 0 restores strict fail-stop-on-first-failure.
  int transient_retry_attempts = 2;
  long long transient_retry_backoff_us = 1000;
};

class DurableEngine {
 public:
  // Opens (creating if absent) the statement log at `path`, replaying
  // any existing contents under options.recovery (kStrict by default:
  // fails if the log does not replay cleanly). A V2 or legacy log is
  // then rewritten as framed V3.
  static Result<std::unique_ptr<DurableEngine>> Open(
      const std::string& path, const DurableOptions& options = {});

  // Executes one statement; successful mutating statements are appended
  // to the log (and fsynced, possibly as part of a batch) before the
  // result is returned. In degraded mode mutating statements return
  // Status::Unavailable. Safe to call from many threads: mutations
  // serialize/batch, retrieves run lock-free on the published snapshot.
  Result<std::string> Execute(const std::string& statement_text);

  // Parses and executes a whole script through the same durable path.
  Result<std::string> ExecuteScript(const std::string& script_text);

  // Executes an already-parsed statement; `limits` (may be null)
  // composes per-request budgets over the engine's own options for the
  // governed read path — the wire server threads request deadlines
  // through here. Mutating statements take the durable commit path
  // (limits do not apply: once a mutation executes it must either
  // commit or roll back whole).
  Result<std::string> ExecuteParsed(const Statement& statement,
                                    const ExecLimits* limits = nullptr);

  // Rewrites the log as the compact framed-V3 DumpScript of the current
  // state (dropped rows and revoked grants disappear). Crash-safe: the
  // original log is replaced atomically or not at all. Quiesces the
  // group-commit queue first; mutations arriving mid-compaction block
  // until it finishes.
  Status Compact();

  // The underlying engine. Stable across Execute calls and fail-stop
  // transitions (a rollback discards the engine's staged snapshot, it
  // does not replace the Engine object). Mutating directly through this
  // reference bypasses the log — setup/test use only.
  Engine& engine() { return *engine_; }
  const std::string& path() const { return path_; }

  // True after a commit failure: mutations return Unavailable,
  // retrieves still work against the last durable state.
  bool degraded() const;
  std::string degraded_reason() const {
    std::lock_guard<std::mutex> lock(mu_);
    return degraded_reason_;
  }

  const RecoveryReport& recovery_report() const { return recovery_; }
  DurableStats stats() const;

 private:
  DurableEngine(std::string path, DurableOptions options, FileSystem* fs,
                std::unique_ptr<Engine> engine)
      : path_(std::move(path)),
        options_(options),
        fs_(fs),
        engine_(std::move(engine)) {}

  // Commits a mutation that already executed (staged, unpublished)
  // under mu_ through the group-commit batch. Publishes on success and
  // rolls back into degraded mode on failure.
  Result<std::string> CommitLocked(std::unique_lock<std::mutex>& lock,
                                   const Statement& stmt, std::string output);
  // Leader-side straggler wait: sleeps in short slices until the window
  // elapses, the batch hits its cap, or arrivals stop.
  void WaitForStragglersLocked(std::unique_lock<std::mutex>& lock);

  // Appends `data` (a whole commit: records + marker) and syncs,
  // retrying transient failures per options_.transient_retry_attempts:
  // each retry truncates the file back to `durable_offset` — the known
  // durable prefix — so a torn append or an fsync-dropped page cannot
  // survive into the next attempt, then backs off and re-appends.
  // `retries` counts attempts beyond the first. Caller must be the batch
  // leader with committing_ set (exclusive use of log_).
  Status AppendDurably(const std::string& data, uint64_t durable_offset,
                       int* retries);

  // Replay a framed (V2/V3) / legacy plain-text log body under the
  // configured recovery mode and fill in recovery_; RecoverFramed also
  // sets next_seq_ and stats_.log_bytes (the end of the valid prefix).
  // Neither touches the file: Open clips a salvaged V3 tail, and
  // rewrites other formats.
  Status RecoverFramed(const std::string& contents, LogFormat format);
  Status RecoverLegacy(const std::string& contents);

  // Replaces the log with the framed-V3 dump of the engine's state:
  // stages `<path>.tmp`, fsyncs it, renames it over the log and reopens
  // the append handle. A failure before the rename leaves the log and
  // log_ untouched; a failed reopen after it enters degraded mode.
  // Requires mu_ and no batch in flight (Compact quiesces; Open runs
  // before any other thread can reach the engine).
  Status RewriteLocked();

  // Transitions to read-only degraded mode. When `rollback` is set the
  // engine's staged (acknowledged-but-not-durable) snapshot is
  // discarded so an uncommitted mutation does not remain visible.
  // Requires mu_.
  void EnterDegradedLocked(const std::string& reason, bool rollback);

  std::string path_;
  DurableOptions options_;
  FileSystem* fs_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<WritableFile> log_;
  uint64_t next_seq_ = 1;
  RecoveryReport recovery_;
  // Counters, the degraded flag and the durable append offset
  // (log_bytes); stats() adds snapshots_live and recovery_.
  DurableStats stats_;
  std::string degraded_reason_;

  // --- group-commit state (all under mu_) -------------------------------
  // Frames staged for the next batch, and how many records they hold.
  std::string pending_buffer_;
  size_t pending_records_ = 0;
  uint64_t pending_first_seq_ = 0;
  // Epoch of the batch currently forming; each waiter remembers the
  // epoch it staged into. resolved advances when a leader finishes a
  // batch (either way); durable advances only when the fsync succeeded,
  // so a waiter's verdict is `durable_epoch_ >= my_epoch`.
  uint64_t pending_epoch_ = 1;
  uint64_t resolved_epoch_ = 0;
  uint64_t durable_epoch_ = 0;
  // A leader exists (forming or committing a batch).
  bool leader_active_ = false;
  // The leader has sealed its batch and is doing I/O with mu_ released.
  // New mutations block at entry while set, so the engine's staged head
  // always equals exactly the sealed batch — a successful publish can
  // never leak a later, not-yet-fsynced mutation to readers.
  bool committing_ = false;
  // Compact() is quiescing/rewriting; mutations block at entry.
  bool compacting_ = false;
  // One condition variable for every wait (stragglers, followers,
  // entry gates, compaction drain); notify_all keeps it race-free.
  mutable std::condition_variable cv_;

  // Guards the log handle, counters, flags and the staging buffers;
  // Engine has its own snapshot machinery for concurrent retrieves.
  mutable std::mutex mu_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_ENGINE_DURABLE_H_
