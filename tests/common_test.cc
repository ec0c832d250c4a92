// Unit tests for Status, Result, CRC32, string utilities and the
// execution governor's ExecContext.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"

namespace viewauth {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(status.message().empty());
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  Status status = Status::NotFound("relation 'X' does not exist");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.message(), "relation 'X' does not exist");
  EXPECT_EQ(status.ToString(), "Not found: relation 'X' does not exist");
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::SchemaMismatch("x").IsSchemaMismatch());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::Unavailable("log gone").ToString(),
            "Unavailable: log gone");
}

TEST(Status, GovernedAbortCodes) {
  Status deadline = Status::DeadlineExceeded("past 5 ms");
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_TRUE(deadline.IsGovernedAbort());
  EXPECT_EQ(deadline.ToString(), "Deadline exceeded: past 5 ms");

  Status budget = Status::ResourceExhausted("row budget");
  EXPECT_TRUE(budget.IsResourceExhausted());
  EXPECT_TRUE(budget.IsGovernedAbort());
  EXPECT_EQ(budget.ToString(), "Resource exhausted: row budget");

  Status cancelled = Status::Cancelled("client gone");
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_TRUE(cancelled.IsGovernedAbort());
  EXPECT_EQ(cancelled.ToString(), "Cancelled: client gone");

  EXPECT_FALSE(Status::Internal("boom").IsGovernedAbort());
  EXPECT_FALSE(Status::OK().IsGovernedAbort());
}

TEST(Status, CopyShares) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(b.IsInternal());
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnMacro(int x) {
  VIEWAUTH_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(Status, ReturnNotOkMacro) {
  EXPECT_TRUE(UsesReturnMacro(1).ok());
  EXPECT_TRUE(UsesReturnMacro(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  VIEWAUTH_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(Result, ValueAndStatus) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
  EXPECT_EQ(err.ValueOr(-1), -1);
  EXPECT_EQ(ok.ValueOr(-1), 5);
}

TEST(Result, AssignOrReturnMacro) {
  auto doubled = DoublePositive(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(*doubled, 42);
  EXPECT_TRUE(DoublePositive(0).status().IsInvalidArgument());
}

TEST(Result, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StrUtil, Join) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
  EXPECT_EQ(Join(std::vector<int>{1, 2}, "-"), "1-2");
}

TEST(StrUtil, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtil, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StrUtil, CaseHelpers) {
  EXPECT_EQ(ToUpperAscii("Acme-1"), "ACME-1");
  EXPECT_EQ(ToLowerAscii("Acme-1"), "acme-1");
  EXPECT_TRUE(EqualsIgnoreCaseAscii("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCaseAscii("WHERE", "wher"));
}

TEST(StrUtil, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("viewauth", "view"));
  EXPECT_FALSE(StartsWith("view", "viewauth"));
  EXPECT_TRUE(EndsWith("viewauth", "auth"));
  EXPECT_FALSE(EndsWith("auth", "viewauth"));
}

TEST(Crc32, KnownVectors) {
  // The standard CRC32 (IEEE 802.3) check values.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(Crc32(std::string_view("\0", 1)), 0xD202EF8Du);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const std::string data = "permit SAE to Brown for delete";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = kCrc32Init;
    crc = Crc32Update(crc, std::string_view(data).substr(0, split));
    crc = Crc32Update(crc, std::string_view(data).substr(split));
    EXPECT_EQ(crc, Crc32(data)) << "split at " << split;
  }
}

// The bit-at-a-time CRC32 definition, the reference the sliced table
// implementation must reproduce.
uint32_t ReferenceCrc32(uint32_t crc, std::string_view data) {
  crc = ~crc;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length up to kMaxLength, then windows of lengths around 64 KiB
  // and around a 114 KB reply frame, where the carry-less-multiply fold
  // (64 bytes per step, 16-byte blocks after it, a table tail) does
  // nearly all the work.
  constexpr size_t kMaxLength = 4096;
  constexpr size_t kWindow = 80;
  constexpr size_t kLongLengths[] = {65536, 114000};
  constexpr size_t kLongest = 114000 + kWindow;
  constexpr size_t kMaxOffset = 8;
  std::string buffer(kLongest + kMaxOffset, '\0');
  uint32_t state = 0x12345678u;
  for (char& c : buffer) {
    state = state * 1664525u + 1013904223u;  // LCG: deterministic bytes
    c = static_cast<char>(state >> 24);
  }
  const std::string_view all(buffer);
  auto checked = [&](size_t length) {
    if (length <= kMaxLength) return true;
    for (size_t center : kLongLengths) {
      if (length + kWindow >= center && length <= center + kWindow) {
        return true;
      }
    }
    return false;
  };
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    // The reference extends its previous prefix by one byte.
    uint32_t reference = kCrc32Init;
    for (size_t length = 0; length <= kLongest; ++length) {
      if (length > 0) {
        reference =
            ReferenceCrc32(reference, all.substr(offset + length - 1, 1));
      }
      if (!checked(length)) continue;
      ASSERT_EQ(Crc32(all.substr(offset, length)), reference)
          << "offset " << offset << " length " << length;
    }
  }
  // Chunked updates agree with the one-shot value, so a running checksum
  // may split its input anywhere: every chunk size up to 17, then sizes
  // on either side of the 16- and 64-byte fold boundaries, over a
  // misaligned 114 KB input.
  const std::string_view data = all.substr(3, 1000);
  const uint32_t whole = ReferenceCrc32(kCrc32Init, data);
  for (size_t chunk = 1; chunk <= 17; ++chunk) {
    uint32_t crc = kCrc32Init;
    for (size_t at = 0; at < data.size(); at += chunk) {
      crc = Crc32Update(crc, data.substr(at, chunk));
    }
    EXPECT_EQ(crc, whole) << "chunk " << chunk;
  }
  const std::string_view long_data = all.substr(5, 114000);
  const uint32_t long_whole = ReferenceCrc32(kCrc32Init, long_data);
  for (size_t chunk : {15, 16, 17, 63, 64, 65, 79, 80, 127, 128, 129, 4099}) {
    uint32_t crc = kCrc32Init;
    for (size_t at = 0; at < long_data.size(); at += chunk) {
      crc = Crc32Update(crc, long_data.substr(at, chunk));
    }
    EXPECT_EQ(crc, long_whole) << "chunk " << chunk;
  }
  // Chunks of changing size, so each call starts at another phase of
  // the fold.
  uint32_t crc = kCrc32Init;
  size_t at = 0;
  for (size_t step = 0; at < long_data.size(); ++step) {
    const size_t chunk = 1 + (step * 37) % 200;
    crc = Crc32Update(crc, long_data.substr(at, chunk));
    at += chunk;
  }
  EXPECT_EQ(crc, long_whole) << "chunks of 1 to 200 bytes";
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string data = "insert into EMPLOYEE values (Jones, manager, 26000)";
  const uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data), clean) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(StrUtil, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(250000), "250,000");
  EXPECT_EQ(FormatWithCommas(-1000), "-1,000");
  EXPECT_EQ(FormatWithCommas(1234567890), "1,234,567,890");
  EXPECT_EQ(FormatWithCommas(INT64_MIN), "-9,223,372,036,854,775,808");
  EXPECT_EQ(FormatWithCommas(INT64_MAX), "9,223,372,036,854,775,807");
}

TEST(StrUtil, WriteDecimalWritesDecimalSizeCharacters) {
  std::vector<long long> values = {INT64_MIN, INT64_MIN + 1, INT64_MAX, 0};
  for (long long power = 1; power <= INT64_MAX / 10; power *= 10) {
    for (long long v : {power - 1, power, power + 1}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (long long v : values) {
    for (bool commas : {false, true}) {
      char text[32];
      char* const end = WriteDecimal(v, commas, text);
      const std::string written(text, end);
      EXPECT_EQ(written.size(), DecimalSize(v, commas)) << v;
      // std::to_string's digits, grouped by three from the right.
      std::string expected = std::to_string(v);
      const size_t first_digit = v < 0 ? 1 : 0;
      for (size_t i = expected.size(); commas && i > first_digit + 3; i -= 3) {
        expected.insert(i - 3, ",");
      }
      EXPECT_EQ(written, expected) << v;
    }
  }
}


// --- ExecContext ----------------------------------------------------------

TEST(ExecContext, UngovernedTicksAreFree) {
  ExecContext ctx;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(ctx.Tick(1, 100));
  }
  EXPECT_TRUE(ctx.ok());
  EXPECT_EQ(ctx.rows_charged(), 0);  // nothing is even counted
  EXPECT_EQ(ctx.checks(), 0);
}

TEST(ExecContext, RowBudgetTrips) {
  ExecLimits limits;
  limits.max_rows = 100;
  ExecContext ctx(limits);
  long long ticked = 0;
  while (ctx.TickRows(1)) {
    ++ticked;
    ASSERT_LE(ticked, 1000) << "budget never tripped";
  }
  EXPECT_EQ(ticked, 100);
  EXPECT_FALSE(ctx.ok());
  EXPECT_TRUE(ctx.status().IsResourceExhausted());
  // Latched: every later tick fails without recharging.
  EXPECT_FALSE(ctx.Tick(1, 1));
  EXPECT_TRUE(ctx.status().IsResourceExhausted());
}

TEST(ExecContext, ByteBudgetTrips) {
  ExecLimits limits;
  limits.max_bytes = 1000;
  ExecContext ctx(limits);
  EXPECT_TRUE(ctx.TickBytes(999));
  EXPECT_FALSE(ctx.TickBytes(500));
  EXPECT_TRUE(ctx.status().IsResourceExhausted());
}

TEST(ExecContext, DeadlineTrips) {
  ExecLimits limits;
  limits.deadline_ms = 1;
  ExecContext ctx(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(ctx.CheckNow());
  EXPECT_TRUE(ctx.status().IsDeadlineExceeded());
}

TEST(ExecContext, DeadlineProbedWithinStride) {
  ExecLimits limits;
  limits.deadline_ms = 1;
  ExecContext ctx(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Row ticks alone must notice the deadline within one check stride.
  long long ticked = 0;
  while (ctx.TickRows(1)) {
    ++ticked;
    ASSERT_LE(ticked, ExecContext::kCheckStride + 1)
        << "deadline not probed within a stride";
  }
  EXPECT_TRUE(ctx.status().IsDeadlineExceeded());
  EXPECT_GE(ctx.checks(), 1);
}

TEST(ExecContext, CancelTripsEvenWithoutLimits) {
  ExecContext ctx;  // ungoverned
  EXPECT_TRUE(ctx.Tick(1, 1));
  ctx.Cancel("client went away");
  EXPECT_FALSE(ctx.Tick(1, 1));
  EXPECT_TRUE(ctx.status().IsCancelled());
  EXPECT_EQ(ctx.status().message(), "client went away");
}

TEST(ExecContext, FirstTripWinsUnderConcurrency) {
  ExecLimits limits;
  limits.max_rows = 1000;
  ExecContext ctx(limits);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ctx] {
      while (ctx.TickRows(1)) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(ctx.ok());
  // Exactly one cause is recorded, and it stays recorded.
  EXPECT_TRUE(ctx.status().IsResourceExhausted());
  ctx.Cancel();  // losing trip must not overwrite the first cause
  EXPECT_TRUE(ctx.status().IsResourceExhausted());
}

}  // namespace
}  // namespace viewauth
