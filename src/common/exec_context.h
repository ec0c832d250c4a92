// ExecContext: the per-statement execution governor.
//
// A retrieve's evaluation — data plan, meta plan, and mask application
// alike — periodically ticks the context with the rows and (approximate)
// bytes it produces. The context trips when the statement runs past its
// absolute deadline, exhausts a row or byte budget, or is cooperatively
// cancelled from another thread; once tripped it stays tripped, and every
// subsequent tick returns false so loops unwind promptly. Callers then
// return `status()` — DeadlineExceeded, ResourceExhausted or Cancelled.
//
// The paper's Figure 2 commutes only when both sides are governed: the S
// data plan and the S' meta plan share one context per retrieve, so a
// budget cannot be bypassed by shifting cost from one side to the other.
//
// Cost model: hot loops tick a per-loop ExecMeter (below) — plain adds
// and a compare — which charges this context in batches, so the atomic
// ticks here run a few hundred times less often than the loop body; the
// wall clock is probed only once per `kCheckStride` charged row-ticks.
// An ungoverned context (no limits set) short-circuits to a single
// relaxed load per direct tick. Together these keep the governed and
// ungoverned paths within the bench_governor 2% overhead gate.
//
// Thread safety: a context is ticked by the session thread running the
// statement and may be cancelled from any other thread. All counters are
// atomics; the trip status is claimed once (first cause wins) and
// published with release/acquire ordering.

#ifndef VIEWAUTH_COMMON_EXEC_CONTEXT_H_
#define VIEWAUTH_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <string>

#include "common/status.h"

namespace viewauth {

// Per-statement limits; 0 means unlimited. Copied into the context at
// construction (the deadline is anchored to "now" at that moment).
struct ExecLimits {
  long long deadline_ms = 0;
  long long max_rows = 0;
  long long max_bytes = 0;

  bool any() const {
    return deadline_ms > 0 || max_rows > 0 || max_bytes > 0;
  }
};

// Composes two limit sets field by field, strictest wins: where both
// sides set a budget the smaller applies; where only one does, that one;
// 0 (unlimited) survives only when neither side sets the field. This is
// how a per-request deadline from the wire protocol composes with the
// engine's own AuthorizationOptions limits.
inline ExecLimits TightenLimits(const ExecLimits& a, const ExecLimits& b) {
  auto strictest = [](long long x, long long y) {
    if (x <= 0) return y;
    if (y <= 0) return x;
    return x < y ? x : y;
  };
  ExecLimits out;
  out.deadline_ms = strictest(a.deadline_ms, b.deadline_ms);
  out.max_rows = strictest(a.max_rows, b.max_rows);
  out.max_bytes = strictest(a.max_bytes, b.max_bytes);
  return out;
}

class ExecContext {
 public:
  // How many row-ticks elapse between wall-clock probes. Sized so that
  // even the vectorized plan — whose per-row cost is a fraction of a
  // nanosecond, making a clock read per 1024-row batch a measurable few
  // percent — stays within the governance-overhead budget, while the
  // slowest tuple-at-a-time plans still notice a deadline within a few
  // milliseconds.
  static constexpr long long kCheckStride = 8192;

  ExecContext() : ExecContext(ExecLimits{}) {}
  explicit ExecContext(const ExecLimits& limits);

  // Shared by reference across threads; never copied or moved.
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // Charges `rows` produced/scanned rows and `bytes` of materialized
  // output against the budgets. Returns false once the context has
  // tripped; the caller should stop producing and return `status()`.
  bool Tick(long long rows, long long bytes) {
    if (tripped_.load(std::memory_order_relaxed)) return false;
    if (!governed_) return true;
    return TickSlow(rows, bytes);
  }
  bool TickRows(long long rows = 1) { return Tick(rows, 0); }
  bool TickBytes(long long bytes) { return Tick(0, bytes); }

  // Unconditional probe (deadline + trip flag), independent of the
  // amortization stride. For loop headers that do heavy per-iteration
  // work without producing rows.
  bool CheckNow();

  bool ok() const { return !tripped_.load(std::memory_order_relaxed); }

  // OK until tripped; afterwards the latched abort status (the first
  // cause to trip wins, even under concurrent ticks).
  Status status() const;

  // Cooperative cancellation, callable from any thread.
  void Cancel(std::string reason = "query cancelled");

  // Observability: wall-clock probes performed (the governor_checks
  // counter), and totals charged so far.
  long long checks() const {
    return checks_.load(std::memory_order_relaxed);
  }
  long long rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }

 private:
  bool TickSlow(long long rows, long long bytes);
  // Decrements the probe countdown by `weight`; on expiry checks the
  // deadline. Returns false if tripped.
  bool Probe(long long weight);
  // Latches the abort status. Only the first caller's code/message are
  // published; later causes are ignored.
  void Trip(StatusCode code, std::string message);

  const bool governed_;
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  const long long deadline_ms_;
  const long long max_rows_;
  const long long max_bytes_;

  std::atomic<long long> rows_{0};
  std::atomic<long long> bytes_{0};
  std::atomic<long long> until_check_{kCheckStride};
  std::atomic<long long> checks_{0};

  // trip_code_/trip_message_ are written by the thread that wins
  // trip_claimed_, then published by the release store to tripped_;
  // status() reads them only after an acquire load of tripped_.
  std::atomic<bool> trip_claimed_{false};
  std::atomic<bool> tripped_{false};
  StatusCode trip_code_ = StatusCode::kOk;
  std::string trip_message_;
};

// A per-loop, single-threaded accumulator in front of a shared (atomic)
// ExecContext. Hot loops tick the meter — two plain adds and a compare —
// and the meter charges the context in batches of kFlushRows rows (or
// kFlushBytes bytes), so the atomic slow path runs a few hundred times
// less often than the loop body. The destructor flushes the remainder,
// keeping the context's charged totals exact; a trip caused by that
// final flush is still caught by the caller's post-loop `ctx->ok()` /
// end-of-retrieve check. Budgets are therefore enforced with at most
// kFlushRows rows (kFlushBytes bytes) of slack, which is also the new
// upper bound on cancellation latency in rows.
//
// Each meter belongs to exactly one loop on one thread; concurrent
// loops each construct their own meter over the shared context.
class ExecMeter {
 public:
  static constexpr long long kFlushRows = 256;
  static constexpr long long kFlushBytes = 1 << 15;

  explicit ExecMeter(ExecContext* ctx) : ctx_(ctx) {}
  ~ExecMeter() {
    if (ctx_ != nullptr && (rows_ != 0 || bytes_ != 0)) {
      ctx_->Tick(rows_, bytes_);
    }
  }

  ExecMeter(const ExecMeter&) = delete;
  ExecMeter& operator=(const ExecMeter&) = delete;

  // Returns false once the underlying context has tripped (checked at
  // flush granularity); the loop should stop and return ctx->status().
  // Always true for a null context, so call sites need no null guard.
  bool Tick(long long rows, long long bytes) {
    if (ctx_ == nullptr) return true;
    rows_ += rows;
    bytes_ += bytes;
    if (rows_ < kFlushRows && bytes_ < kFlushBytes) return true;
    return Flush();
  }
  bool TickRows(long long rows = 1) { return Tick(rows, 0); }

  // Charges everything accumulated so far; returns false if the context
  // is (or becomes) tripped.
  bool Flush() {
    if (ctx_ == nullptr) return true;
    const long long rows = rows_;
    const long long bytes = bytes_;
    rows_ = 0;
    bytes_ = 0;
    if (rows == 0 && bytes == 0) return ctx_->ok();
    return ctx_->Tick(rows, bytes);
  }

 private:
  ExecContext* const ctx_;
  long long rows_ = 0;
  long long bytes_ = 0;
};

}  // namespace viewauth

#endif  // VIEWAUTH_COMMON_EXEC_CONTEXT_H_
