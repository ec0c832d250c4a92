// The length-prefixed wire frame of the viewauth protocol.
//
// Every message in either direction is one frame:
//
//   offset  size  field
//   0       4     body length N, uint32 little-endian (1 <= N <= cap)
//   4       4     CRC32 of the body, uint32 little-endian
//   8       N     body: 1 type byte + payload
//
// The length is validated against the frame cap BEFORE any allocation,
// so a hostile or corrupted length prefix cannot balloon memory; the
// CRC is validated after the body arrives, so a flipped bit anywhere in
// the body is detected before the payload is parsed. Both failures are
// protocol errors: the stream cannot be resynchronized afterwards and
// the connection must be closed (after a best-effort error frame).
//
// Frame types
//   'H' hello     client -> server   payload = user name
//   'Q' request   client -> server   payload = request header + statement
//   'S' stats     client -> server   payload = request id (8 bytes)
//   'B' goodbye   client -> server   empty payload; clean close
//   'R' reply     server -> client   payload = reply header + text
//   'E' error     server -> client   payload = message; connection-fatal
//
// Request payload:  u64 request id | u32 deadline_ms | statement text.
// Reply payload:    u64 request id | i32 status code | text (the result
//                   rendering when the code is 0/kOk, the error message
//                   otherwise).

#ifndef VIEWAUTH_SERVER_FRAME_H_
#define VIEWAUTH_SERVER_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/socket.h"

namespace viewauth {

// Default hard cap on one frame's body (type byte + payload). Requests
// and replies share it; a reply that would exceed the cap is replaced
// by a structured "reply too large" error reply instead.
constexpr uint32_t kDefaultMaxFrameBytes = 4u << 20;

constexpr size_t kFrameHeaderBytes = 8;

enum class FrameType : uint8_t {
  kHello = 'H',
  kRequest = 'Q',
  kStats = 'S',
  kGoodbye = 'B',
  kReply = 'R',
  kError = 'E',
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// Serializes one frame (header + type + payload).
std::string EncodeFrame(FrameType type, std::string_view payload);

// Reads one frame. `first_byte_timeout_ms` bounds the wait for the
// frame to BEGIN (the idle/polling slice); `rest_timeout_ms` bounds the
// remainder once the first header byte arrived (a peer that starts a
// frame and stalls mid-way is a fault, not an idle client).
//
// Status contract:
//   NotFound          clean close at a frame boundary
//   DeadlineExceeded  nothing arrived within first_byte_timeout_ms
//   InvalidArgument   protocol error (oversized length, CRC mismatch,
//                     unknown type, zero-length body, mid-frame
//                     disconnect/stall) — connection-fatal
//   Unavailable       peer reset underneath us
Result<Frame> ReadFrame(Socket& socket, uint32_t max_frame_bytes,
                        long long first_byte_timeout_ms,
                        long long rest_timeout_ms);

struct RequestPayload {
  uint64_t id = 0;
  // 0 = no per-request deadline (the server default applies).
  uint32_t deadline_ms = 0;
  std::string statement;
};

std::string EncodeRequest(const RequestPayload& request);
Result<RequestPayload> DecodeRequest(std::string_view payload);

struct ReplyPayload {
  uint64_t id = 0;
  // A StatusCode as its integer value; 0 = OK.
  int32_t code = 0;
  std::string text;
};

std::string EncodeReply(const ReplyPayload& reply);
// The whole reply frame, EncodeFrame(kReply, EncodeReply(reply)), built
// in one buffer: the text is copied once.
std::string EncodeReplyFrame(const ReplyPayload& reply);
// The reply's text takes over the payload's buffer: pass an rvalue to
// decode without copying.
Result<ReplyPayload> DecodeReply(std::string payload);

}  // namespace viewauth

#endif  // VIEWAUTH_SERVER_FRAME_H_
