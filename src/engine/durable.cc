#include "engine/durable.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "common/str_util.h"
#include "parser/parser.h"

namespace viewauth {

namespace {

constexpr std::string_view kMagicV2 = "#viewauth-log v2\n";
constexpr std::string_view kMagicV3 = "#viewauth-log v3\n";

// Retrieves and analyses never touch the log: they are clean
// non-mutations even when the execution governor aborts them mid-scan
// (deadline, budget, cancellation, admission shed), so a governed abort
// can neither append a partial record nor flip the log into degraded
// mode. tests/governor_test.cc asserts this.
bool IsMutating(const Statement& stmt) {
  return !std::holds_alternative<RetrieveStmt>(stmt) &&
         !std::holds_alternative<AnalyzeStmt>(stmt);
}

// "@<seq> <len> <crc32-hex>\n<payload>\n"
std::string FrameRecord(uint64_t seq, std::string_view payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "@%llu %zu %08x\n",
                static_cast<unsigned long long>(seq), payload.size(),
                Crc32(payload));
  std::string record(header);
  record.append(payload);
  record.push_back('\n');
  return record;
}

// "=<first> <last> <crc32-hex>\n" — commits records first..last. The CRC
// covers the decimal "<first> <last>" text, so a torn or bit-flipped
// marker can never commit a batch it does not describe.
std::string FrameMarker(uint64_t first, uint64_t last) {
  char body[48];
  std::snprintf(body, sizeof(body), "%llu %llu",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(last));
  char line[64];
  std::snprintf(line, sizeof(line), "=%s %08x\n", body,
                Crc32(std::string_view(body)));
  return std::string(line);
}

// Parses "@<seq> <len> <8-hex-crc>" (the header line without its '\n').
bool ParseRecordHeader(std::string_view line, uint64_t* seq, uint64_t* len,
                       uint32_t* crc) {
  if (line.size() < 5 || line[0] != '@') return false;
  const char* end = line.data() + line.size();
  auto seq_result = std::from_chars(line.data() + 1, end, *seq, 10);
  if (seq_result.ec != std::errc() || seq_result.ptr == end ||
      *seq_result.ptr != ' ') {
    return false;
  }
  auto len_result = std::from_chars(seq_result.ptr + 1, end, *len, 10);
  if (len_result.ec != std::errc() || len_result.ptr == end ||
      *len_result.ptr != ' ') {
    return false;
  }
  const char* crc_begin = len_result.ptr + 1;
  if (end - crc_begin != 8) return false;
  auto crc_result = std::from_chars(crc_begin, end, *crc, 16);
  return crc_result.ec == std::errc() && crc_result.ptr == end;
}

// Parses "=<first> <last> <8-hex-crc>" and verifies the CRC.
bool ParseMarkerLine(std::string_view line, uint64_t* first, uint64_t* last) {
  if (line.size() < 5 || line[0] != '=') return false;
  const char* end = line.data() + line.size();
  auto first_result = std::from_chars(line.data() + 1, end, *first, 10);
  if (first_result.ec != std::errc() || first_result.ptr == end ||
      *first_result.ptr != ' ') {
    return false;
  }
  auto last_result = std::from_chars(first_result.ptr + 1, end, *last, 10);
  if (last_result.ec != std::errc() || last_result.ptr == end ||
      *last_result.ptr != ' ') {
    return false;
  }
  const char* crc_begin = last_result.ptr + 1;
  if (end - crc_begin != 8) return false;
  uint32_t crc = 0;
  auto crc_result = std::from_chars(crc_begin, end, crc, 16);
  if (crc_result.ec != std::errc() || crc_result.ptr != end) return false;
  std::string_view body(line.data() + 1,
                        static_cast<size_t>(crc_begin - line.data()) - 2);
  return Crc32(body) == crc;
}

struct FramedScan {
  // Committed payloads only (for a marker log, records behind a valid
  // marker; for a V2 log, every valid record).
  std::vector<std::string> payloads;
  uint64_t last_seq = 0;
  // Offset of the last commit boundary; file size when the log is clean.
  size_t valid_bytes = 0;
  // Offset where damage was detected (== file size for a clean scan or a
  // pure uncommitted tail).
  size_t damage_pos = 0;
  bool damaged = false;
  // True when no fully valid record or marker follows the damage (the
  // crash-truncation shape); false means interior corruption.
  bool damage_is_tail = true;
  uint64_t damaged_records = 0;
  std::string detail;
};

FramedScan ScanFramedLog(std::string_view contents, size_t magic_size,
                         bool with_markers) {
  FramedScan scan;
  size_t pos = magic_size;
  scan.valid_bytes = pos;
  uint64_t expected_seq = 0;  // 0 = first record establishes the base
  // Records appended since the last marker; provisional until committed.
  std::vector<std::string> staged;
  uint64_t staged_first = 0;
  uint64_t staged_last = 0;
  auto damage = [&](std::string detail) {
    scan.damaged = true;
    scan.damage_pos = pos;
    scan.detail = std::move(detail);
  };
  while (pos < contents.size()) {
    if (with_markers && contents[pos] == '=') {
      size_t line_end = contents.find('\n', pos);
      if (line_end == std::string_view::npos) {
        damage("truncated commit marker at offset " + std::to_string(pos));
        break;
      }
      uint64_t first = 0;
      uint64_t last = 0;
      if (!ParseMarkerLine(contents.substr(pos, line_end - pos), &first,
                           &last)) {
        damage("malformed commit marker at offset " + std::to_string(pos));
        break;
      }
      if (staged.empty() || first != staged_first || last != staged_last) {
        damage("commit marker [" + std::to_string(first) + ".." +
               std::to_string(last) + "] does not match the staged records");
        break;
      }
      for (std::string& payload : staged) {
        scan.payloads.push_back(std::move(payload));
      }
      staged.clear();
      scan.last_seq = last;
      pos = line_end + 1;
      scan.valid_bytes = pos;
      continue;
    }
    size_t header_end = contents.find('\n', pos);
    if (header_end == std::string_view::npos) {
      damage("truncated record header at offset " + std::to_string(pos));
      break;
    }
    uint64_t seq = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    if (!ParseRecordHeader(contents.substr(pos, header_end - pos), &seq,
                           &len, &crc)) {
      damage("malformed record header at offset " + std::to_string(pos));
      break;
    }
    size_t payload_begin = header_end + 1;
    size_t avail = contents.size() - payload_begin;
    if (len >= avail) {  // the payload plus its '\n' terminator is cut off
      damage("truncated payload for record seq " + std::to_string(seq));
      break;
    }
    std::string_view payload = contents.substr(payload_begin, len);
    if (contents[payload_begin + len] != '\n') {
      damage("missing terminator for record seq " + std::to_string(seq));
      break;
    }
    if (Crc32(payload) != crc) {
      damage("checksum mismatch for record seq " + std::to_string(seq));
      break;
    }
    if (expected_seq != 0 && seq != expected_seq) {
      damage("sequence gap: expected seq " + std::to_string(expected_seq) +
             ", found " + std::to_string(seq));
      break;
    }
    if (with_markers) {
      if (staged.empty()) staged_first = seq;
      staged_last = seq;
      staged.emplace_back(payload);
      pos = payload_begin + len + 1;
      // valid_bytes advances only at a commit boundary.
    } else {
      scan.payloads.emplace_back(payload);
      scan.last_seq = seq;
      pos = payload_begin + len + 1;
      scan.valid_bytes = pos;
    }
    expected_seq = seq + 1;
  }
  if (!scan.damaged && !staged.empty()) {
    // Clean EOF mid-batch: the appended-but-never-committed shape (crash
    // between the batch append and its marker becoming durable). Always
    // a tail — no committed content follows staged records.
    scan.damaged = true;
    scan.damage_pos = contents.size();
    scan.damage_is_tail = true;
    scan.damaged_records = staged.size();
    scan.detail = "uncommitted batch tail: " +
                  std::to_string(staged.size()) +
                  " record(s) without a commit marker";
    return scan;
  }
  if (!scan.damaged) return scan;

  // Classify the damage: if any fully valid record or marker follows it,
  // this is interior corruption (unsalvageable); otherwise it is a torn
  // tail. Along the way, count record headers in the dropped region
  // (everything past the last commit boundary, staged records included)
  // so the report can say how many records are being dropped.
  uint64_t header_like = staged.size();
  bool later_valid_record = false;
  for (size_t p = scan.damage_pos; p < contents.size(); ++p) {
    bool at_line_start = p == scan.damage_pos || contents[p - 1] == '\n';
    if (!at_line_start) continue;
    if (with_markers && contents[p] == '=') {
      size_t line_end = contents.find('\n', p);
      if (line_end == std::string_view::npos) continue;
      uint64_t first = 0;
      uint64_t last = 0;
      if (ParseMarkerLine(contents.substr(p, line_end - p), &first, &last)) {
        later_valid_record = true;
        break;
      }
      continue;
    }
    if (contents[p] != '@') continue;
    ++header_like;
    size_t header_end = contents.find('\n', p);
    if (header_end == std::string_view::npos) continue;
    uint64_t seq = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    if (!ParseRecordHeader(contents.substr(p, header_end - p), &seq, &len,
                           &crc)) {
      continue;
    }
    size_t payload_begin = header_end + 1;
    if (payload_begin > contents.size() ||
        len >= contents.size() - payload_begin) {
      continue;
    }
    if (contents[payload_begin + len] != '\n') continue;
    if (Crc32(contents.substr(payload_begin, len)) != crc) continue;
    later_valid_record = true;
    break;
  }
  scan.damage_is_tail = !later_valid_record;
  scan.damaged_records = header_like == 0 ? 1 : header_like;
  return scan;
}

}  // namespace

std::string_view LogFormatToString(LogFormat format) {
  switch (format) {
    case LogFormat::kLegacyText:
      return "legacy-text";
    case LogFormat::kFramedV2:
      return "framed-v2";
    case LogFormat::kFramedV3:
      return "framed-v3";
  }
  return "unknown";
}

std::string RecoveryReport::ToString() const {
  std::ostringstream out;
  out << "format=" << LogFormatToString(format) << " records="
      << records_replayed;
  if (format != LogFormat::kLegacyText) out << " last_seq=" << last_good_seq;
  if (format != LogFormat::kFramedV3) out << " rewritten as framed-v3";
  if (salvaged) {
    out << " salvaged: dropped " << dropped_records << " record"
        << (dropped_records == 1 ? "" : "s") << " (" << dropped_bytes
        << " bytes): " << detail;
  }
  return out.str();
}

std::string DurableStats::ToString() const {
  std::ostringstream out;
  out << "durability:\n"
      << "  state               " << (degraded ? "DEGRADED" : "ok") << "\n"
      << "  appends             " << appends << " (" << append_bytes
      << " bytes)\n"
      << "  commit batches      " << commit_batches;
  if (commit_batches > 0) {
    out << " (" << std::fixed << std::setprecision(1)
        << static_cast<double>(batched_records) /
               static_cast<double>(commit_batches)
        << " frames/batch, " << fsyncs_saved << " fsyncs saved)";
  }
  out << "\n"
      << "  batch aborts        " << batch_aborts << "\n"
      << "  transient retries   " << transient_retries << " ("
      << transient_recoveries << " recovered)\n"
      << "  snapshots live      " << snapshots_live << "\n"
      << "  compactions         " << compactions << "\n"
      << "  log bytes           " << log_bytes << "\n"
      << "  recovery            " << recovery.ToString() << "\n";
  return out.str();
}

Result<std::unique_ptr<DurableEngine>> DurableEngine::Open(
    const std::string& path, const DurableOptions& options) {
  FileSystem* fs = options.fs != nullptr ? options.fs : FileSystem::Default();

  // A crash between writing <path>.tmp and the rename commit leaves a
  // stale temp file behind; it was never the live log, so drop it.
  const std::string tmp_path = path + ".tmp";
  if (fs->FileExists(tmp_path)) (void)fs->RemoveFile(tmp_path);

  std::string contents;
  if (fs->FileExists(path)) {
    VIEWAUTH_ASSIGN_OR_RETURN(contents, fs->ReadFileToString(path));
  }

  std::unique_ptr<DurableEngine> durable(new DurableEngine(
      path, options, fs, std::make_unique<Engine>()));
  durable->options_.fs = fs;
  RecoveryReport& recovery = durable->recovery_;

  if (contents.empty()) {
    // Fresh (or zero-length) log: initialized as framed V3 below.
  } else if (StartsWith(contents, kMagicV3)) {
    VIEWAUTH_RETURN_NOT_OK(
        durable->RecoverFramed(contents, LogFormat::kFramedV3));
  } else if (StartsWith(contents, kMagicV2)) {
    VIEWAUTH_RETURN_NOT_OK(
        durable->RecoverFramed(contents, LogFormat::kFramedV2));
  } else if (StartsWith(kMagicV3, contents) || StartsWith(kMagicV2, contents)) {
    // The file is a proper prefix of a magic line: a crash during log
    // creation. Nothing was ever committed.
    if (options.recovery != RecoveryMode::kSalvage) {
      return Status::Internal(
          "statement log '" + path +
          "' has a truncated header (reopen in salvage mode to reset it)");
    }
    recovery.salvaged = true;
    recovery.dropped_bytes = contents.size();
    recovery.detail = "truncated log header";
  } else if (contents[0] == '#') {
    return Status::Internal("statement log '" + path +
                            "' has an unrecognized header line");
  } else {
    VIEWAUTH_RETURN_NOT_OK(durable->RecoverLegacy(contents));
  }

  if (recovery.format != LogFormat::kFramedV3) {
    // Older formats are inputs only: replace the log with its framed-V3
    // dump before anything is appended.
    VIEWAUTH_RETURN_NOT_OK(durable->RewriteLocked());
  } else {
    uint64_t& log_bytes = durable->stats_.log_bytes;
    if (recovery.salvaged) {
      VIEWAUTH_RETURN_NOT_OK(fs->TruncateFile(path, log_bytes));
    }
    VIEWAUTH_ASSIGN_OR_RETURN(durable->log_,
                              fs->NewWritableFile(path, WriteMode::kAppend));
    if (log_bytes == 0) {
      VIEWAUTH_RETURN_NOT_OK(durable->log_->Append(kMagicV3));
      VIEWAUTH_RETURN_NOT_OK(durable->log_->Sync());
      // The log may have just been created: fsync the directory so the
      // file itself (not only its contents) survives a crash. Without
      // this, records acknowledged as durable could vanish with the
      // directory entry and the next Open would see a fresh empty log.
      VIEWAUTH_RETURN_NOT_OK(fs->SyncDirectoryOf(path));
      log_bytes = kMagicV3.size();
    }
  }
  // From here on, mutations stage privately and publish to readers only
  // once their commit (batch) is durable — a retrieve can never observe
  // an acknowledged-then-rolled-back state.
  durable->engine_->SetDeferPublication(true);
  return durable;
}

Status DurableEngine::RecoverFramed(const std::string& contents,
                                    LogFormat format) {
  const bool v3 = format == LogFormat::kFramedV3;
  FramedScan scan = ScanFramedLog(
      contents, v3 ? kMagicV3.size() : kMagicV2.size(), /*with_markers=*/v3);
  if (scan.damaged) {
    if (!scan.damage_is_tail) {
      return Status::Internal("statement log '" + path_ +
                              "' has interior corruption (" + scan.detail +
                              " with valid records after it); refusing to "
                              "drop interior records in any recovery mode");
    }
    if (options_.recovery == RecoveryMode::kStrict) {
      return Status::Internal(
          "statement log '" + path_ + "' has a damaged tail: " +
          scan.detail + " (reopen in salvage mode to truncate it)");
    }
  }
  for (size_t i = 0; i < scan.payloads.size(); ++i) {
    auto stmt = ParseStatement(scan.payloads[i]);
    Status executed =
        stmt.ok() ? engine_->ExecuteParsed(*stmt).status() : stmt.status();
    if (!executed.ok()) {
      return Status::Internal(
          "statement log '" + path_ + "' record " + std::to_string(i + 1) +
          " does not replay cleanly: " + executed.ToString());
    }
  }
  recovery_.format = format;
  if (scan.damaged) {
    recovery_.salvaged = true;
    recovery_.dropped_records = scan.damaged_records;
    recovery_.dropped_bytes = contents.size() - scan.valid_bytes;
    recovery_.detail = scan.detail;
  }
  recovery_.records_replayed = scan.payloads.size();
  recovery_.last_good_seq = scan.last_seq;
  next_seq_ = scan.payloads.empty() ? 1 : scan.last_seq + 1;
  stats_.log_bytes = scan.valid_bytes;
  return Status::OK();
}

Status DurableEngine::RecoverLegacy(const std::string& contents) {
  std::string effective = contents;
  bool salvaged_tail = false;
  auto parsed = ParseProgram(effective);
  if (!parsed.ok()) {
    // A torn append leaves a final line without its '\n'. If dropping
    // that partial line yields a clean log, the damage is a pure tail;
    // anything else (including damage in newline-terminated content) is
    // interior corruption.
    bool tail_candidate = !effective.empty() && effective.back() != '\n';
    if (options_.recovery == RecoveryMode::kStrict) {
      return Status::Internal(
          "statement log '" + path_ + "' does not replay cleanly: " +
          parsed.status().ToString() +
          (tail_candidate ? " (reopen in salvage mode to drop the torn "
                            "final line)"
                          : ""));
    }
    if (!tail_candidate) {
      return Status::Internal("statement log '" + path_ +
                              "' has interior corruption: " +
                              parsed.status().ToString());
    }
    size_t cut = effective.find_last_of('\n');
    effective = cut == std::string::npos ? std::string()
                                         : effective.substr(0, cut + 1);
    parsed = ParseProgram(effective);
    if (!parsed.ok()) {
      return Status::Internal("statement log '" + path_ +
                              "' has interior corruption: " +
                              parsed.status().ToString());
    }
    salvaged_tail = true;
  }
  for (const Statement& stmt : *parsed) {
    auto executed = engine_->ExecuteParsed(stmt);
    if (!executed.ok()) {
      return Status::Internal("statement log '" + path_ +
                              "' does not replay cleanly: " +
                              executed.status().ToString());
    }
  }
  recovery_.format = LogFormat::kLegacyText;
  if (salvaged_tail) {
    recovery_.salvaged = true;
    recovery_.dropped_records = 1;
    recovery_.dropped_bytes = contents.size() - effective.size();
    recovery_.detail = "torn final line";
  }
  recovery_.records_replayed = parsed->size();
  return Status::OK();
}

void DurableEngine::EnterDegradedLocked(const std::string& reason,
                                        bool rollback) {
  stats_.degraded = true;
  degraded_reason_ = reason;
  if (log_ != nullptr) {
    (void)log_->Close();
    log_.reset();
  }
  // Best effort: clip any torn or unfsynced bytes so the on-disk log
  // ends at the durable prefix. If the device is gone this fails
  // silently and the next Open salvages instead.
  (void)fs_->TruncateFile(path_, stats_.log_bytes);
  pending_buffer_.clear();
  pending_records_ = 0;
  // The aborted mutations already executed against the engine's staged
  // head; discard it so they are not visible as committed. Readers keep
  // the last published (durable) snapshot.
  if (rollback) engine_->DiscardStaged();
  cv_.notify_all();
}

Result<std::string> DurableEngine::Execute(
    const std::string& statement_text) {
  VIEWAUTH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement_text));
  return ExecuteParsed(stmt);
}

Result<std::string> DurableEngine::ExecuteScript(
    const std::string& script_text) {
  VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                            ParseProgram(script_text));
  std::ostringstream out;
  for (const Statement& stmt : statements) {
    VIEWAUTH_ASSIGN_OR_RETURN(std::string output, ExecuteParsed(stmt));
    if (!output.empty()) out << output << "\n";
  }
  return out.str();
}

Result<std::string> DurableEngine::ExecuteParsed(const Statement& stmt,
                                                 const ExecLimits* limits) {
  if (!IsMutating(stmt)) {
    // Lock-free reader path: retrieves and analyses pin the engine's
    // published snapshot and never touch mu_, so they make progress even
    // while a mutation batch is parked on a slow (or blocked) fsync, and
    // they keep working in degraded mode against the last durable state.
    return engine_->ExecuteParsed(stmt, limits);
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Entry gate: wait out compaction, any batch mid-fsync, and a forming
  // batch that is already full. Blocking execution while a batch commits
  // keeps the engine's staged head equal to exactly the sealed batch, so
  // a successful publish can never leak a later, not-yet-durable
  // mutation to readers; the cap check keeps stragglers from overfilling
  // a batch while its leader waits for them.
  const size_t max_batch =
      static_cast<size_t>(std::max(1, options_.group_commit_max_batch));
  cv_.wait(lock, [this, max_batch] {
    return !compacting_ && !committing_ && pending_records_ < max_batch;
  });
  if (stats_.degraded) {
    return Status::Unavailable("statement log '" + path_ +
                               "' is in read-only degraded mode: " +
                               degraded_reason_);
  }
  // Executes against the private head (deferred publication): readers
  // cannot see the mutation until its commit is durable.
  VIEWAUTH_ASSIGN_OR_RETURN(std::string output,
                            engine_->ExecuteParsed(stmt));
  return CommitLocked(lock, stmt, std::move(output));
}

Status DurableEngine::AppendDurably(const std::string& data,
                                    uint64_t durable_offset, int* retries) {
  const int attempts = std::max(0, options_.transient_retry_attempts);
  Status last;
  for (int attempt = 0;; ++attempt) {
    if (log_ == nullptr) {
      return Status::Internal("statement log '" + path_ + "' is closed");
    }
    last = log_->Append(data);
    if (last.ok()) last = log_->Sync();
    if (last.ok()) return last;
    if (attempt >= attempts) return last;
    if (retries != nullptr) ++(*retries);
    // Clip whatever the failed attempt left behind — a torn append, or
    // pages a failed fsync may have dropped from cache — back to the
    // durable prefix, so the retry re-appends the whole commit onto a
    // known-good file. If even the clip fails the device is gone:
    // surface the original failure and let the caller fail-stop.
    Status clipped = fs_->TruncateFile(path_, durable_offset);
    if (!clipped.ok()) return last;
    long long backoff_us = options_.transient_retry_backoff_us;
    for (int i = 0; i < attempt; ++i) backoff_us *= 2;
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

Result<std::string> DurableEngine::CommitLocked(
    std::unique_lock<std::mutex>& lock, const Statement& stmt,
    std::string output) {
  // Stage this mutation's frame into the forming batch.
  const uint64_t seq = next_seq_++;
  if (pending_records_ == 0) pending_first_seq_ = seq;
  pending_buffer_ += FrameRecord(seq, StatementToString(stmt));
  ++pending_records_;
  const uint64_t my_epoch = pending_epoch_;
  cv_.notify_all();

  for (;;) {
    if (resolved_epoch_ >= my_epoch) {
      if (durable_epoch_ >= my_epoch) return output;
      return Status::Unavailable(
          "mutation was not committed (its commit batch aborted: " +
          degraded_reason_ + "); the engine is now read-only");
    }
    if (stats_.degraded) {
      // Defensive: an earlier failure drained the queue before this
      // batch could elect a leader.
      return Status::Unavailable(
          "mutation was not committed (statement log '" + path_ +
          "' entered degraded mode: " + degraded_reason_ + ")");
    }
    if (!leader_active_) {
      // Leader: gather stragglers, seal the batch, commit it with one
      // append and one fsync, then resolve every waiter.
      leader_active_ = true;
      WaitForStragglersLocked(lock);
      std::string batch = std::move(pending_buffer_);
      pending_buffer_.clear();
      const size_t records = std::exchange(pending_records_, 0);
      batch += FrameMarker(pending_first_seq_, next_seq_ - 1);
      const uint64_t epoch = pending_epoch_++;
      const uint64_t durable_offset = stats_.log_bytes;
      committing_ = true;
      lock.unlock();
      // Leader exclusivity: only the leader touches log_ with mu_
      // released, and Compact() quiesces the queue before swapping the
      // handle, so this unlocked I/O never races.
      int retries = 0;
      Status written = AppendDurably(batch, durable_offset, &retries);
      lock.lock();
      committing_ = false;
      stats_.transient_retries += retries;
      if (written.ok() && retries > 0) ++stats_.transient_recoveries;
      resolved_epoch_ = epoch;
      if (written.ok()) {
        durable_epoch_ = epoch;
        stats_.log_bytes += batch.size();
        ++stats_.appends;
        stats_.append_bytes += batch.size();
        ++stats_.commit_batches;
        stats_.batched_records += records;
        stats_.fsyncs_saved += records - 1;
        engine_->PublishStaged();
      } else {
        // The whole batch aborts: no waiter is acknowledged, the staged
        // engine state rolls back, and the torn append (if any bytes
        // reached the file) is clipped back to the durable prefix.
        ++stats_.batch_aborts;
        EnterDegradedLocked("batch commit failed: " + written.ToString(),
                            /*rollback=*/true);
      }
      leader_active_ = false;
      cv_.notify_all();
      continue;  // resolve through the checks at the top
    }
    cv_.wait(lock);
  }
}

void DurableEngine::WaitForStragglersLocked(
    std::unique_lock<std::mutex>& lock) {
  const long long window_us = options_.group_commit_window_us;
  if (window_us <= 0) return;
  const int max_batch = std::max(1, options_.group_commit_max_batch);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(window_us);
  const auto slice = std::chrono::microseconds(
      std::max<long long>(1, window_us / 4));
  size_t seen = pending_records_;
  while (static_cast<int>(pending_records_) < max_batch &&
         std::chrono::steady_clock::now() < deadline) {
    cv_.wait_for(lock, slice);
    if (pending_records_ == seen) break;  // arrivals dried up
    seen = pending_records_;
  }
}

Status DurableEngine::RewriteLocked() {
  VIEWAUTH_ASSIGN_OR_RETURN(std::string script, engine_->DumpScript());
  VIEWAUTH_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                            ParseProgram(script));
  std::string buffer(kMagicV3);
  uint64_t seq = 0;
  for (const Statement& stmt : statements) {
    buffer += FrameRecord(++seq, StatementToString(stmt));
  }
  // One marker commits the whole dump.
  if (seq > 0) buffer += FrameMarker(1, seq);

  // Stage the replacement; any failure here leaves the original log
  // and the open append handle untouched.
  const std::string tmp_path = path_ + ".tmp";
  Status written;
  {
    auto file = fs_->NewWritableFile(tmp_path, WriteMode::kTruncate);
    if (!file.ok()) {
      return Status::Internal("rewrite of '" + path_ +
                              "' failed to stage: " +
                              file.status().ToString());
    }
    written = (*file)->Append(buffer);
    if (written.ok()) written = (*file)->Sync();
    Status closed = (*file)->Close();
    if (written.ok()) written = closed;
  }
  if (!written.ok()) {
    (void)fs_->RemoveFile(tmp_path);
    return Status::Internal("rewrite of '" + path_ + "' failed: " +
                            written.ToString());
  }
  Status renamed = fs_->RenameFile(tmp_path, path_);
  if (!renamed.ok()) {
    (void)fs_->RemoveFile(tmp_path);
    return Status::Internal("rewrite of '" + path_ +
                            "' failed to commit: " + renamed.ToString());
  }

  // The rename committed: the rewritten log is the live one. The old
  // append handle points at the unlinked previous file; swap it out.
  if (log_ != nullptr) (void)log_->Close();
  log_.reset();
  next_seq_ = seq + 1;
  stats_.log_bytes = buffer.size();
  auto reopened = fs_->NewWritableFile(path_, WriteMode::kAppend);
  if (!reopened.ok()) {
    // The rewritten state is fully durable, but nothing more can be
    // appended: fail stop without rolling back.
    EnterDegradedLocked("cannot reopen statement log after rewrite: " +
                            reopened.status().ToString(),
                        /*rollback=*/false);
    return Status::Unavailable(
        "rewrite committed but the log could not be reopened; the engine "
        "is now read-only: " + reopened.status().ToString());
  }
  log_ = std::move(*reopened);
  return Status::OK();
}

Status DurableEngine::Compact() {
  std::unique_lock<std::mutex> lock(mu_);
  // One compaction at a time; a second caller queues behind the first.
  cv_.wait(lock, [this] { return !compacting_; });
  if (stats_.degraded) {
    return Status::Unavailable("statement log '" + path_ +
                               "' is in read-only degraded mode: " +
                               degraded_reason_);
  }
  // Quiesce the commit queue: mutations arriving from here on block at
  // the entry gate; the in-flight batch (if any) resolves and staged
  // frames drain through their leader before the rewrite starts.
  compacting_ = true;
  cv_.wait(lock, [this] { return !leader_active_ && pending_records_ == 0; });
  Status result =
      stats_.degraded
          ? Status::Unavailable("statement log '" + path_ +
                                "' is in read-only degraded mode: " +
                                degraded_reason_)
          : RewriteLocked();
  if (result.ok()) ++stats_.compactions;
  compacting_ = false;
  cv_.notify_all();
  return result;
}

bool DurableEngine::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.degraded;
}

DurableStats DurableEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurableStats stats = stats_;
  stats.snapshots_live = engine_->snapshots_live();
  stats.recovery = recovery_;
  return stats;
}

}  // namespace viewauth
