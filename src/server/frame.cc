#include "server/frame.h"

#include <cstring>

#include "common/crc32.h"

namespace viewauth {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xff);
  bytes[1] = static_cast<char>((v >> 8) & 0xff);
  bytes[2] = static_cast<char>((v >> 16) & 0xff);
  bytes[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

bool KnownType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kRequest:
    case FrameType::kStats:
    case FrameType::kGoodbye:
    case FrameType::kReply:
    case FrameType::kError:
      return true;
  }
  return false;
}

// Appends the reply payload: header, then text.
void AppendReply(const ReplyPayload& reply, std::string* out) {
  PutU64(out, reply.id);
  PutU32(out, static_cast<uint32_t>(reply.code));
  out->append(reply.text);
}

// A frame's header placeholder and type byte, with room reserved for a
// `payload_bytes`-byte payload appended in place.
std::string StartFrame(FrameType type, size_t payload_bytes) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 1 + payload_bytes);
  frame.resize(kFrameHeaderBytes);
  frame.push_back(static_cast<char>(type));
  return frame;
}

// Fills in the header of a frame whose body is complete: the body's
// length, and its CRC computed where it lies.
void FinishFrame(std::string* frame) {
  const std::string_view body =
      std::string_view(*frame).substr(kFrameHeaderBytes);
  std::string header;
  PutU32(&header, static_cast<uint32_t>(body.size()));
  PutU32(&header, Crc32(body));
  frame->replace(0, kFrameHeaderBytes, header);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame = StartFrame(type, payload.size());
  frame.append(payload);
  FinishFrame(&frame);
  return frame;
}

std::string EncodeReplyFrame(const ReplyPayload& reply) {
  std::string frame = StartFrame(FrameType::kReply, 12 + reply.text.size());
  AppendReply(reply, &frame);
  FinishFrame(&frame);
  return frame;
}

Result<Frame> ReadFrame(Socket& socket, uint32_t max_frame_bytes,
                        long long first_byte_timeout_ms,
                        long long rest_timeout_ms) {
  // The header is read in two steps so an idle connection (no bytes at
  // all) is distinguishable from a peer that died mid-frame.
  char header[kFrameHeaderBytes];
  VIEWAUTH_ASSIGN_OR_RETURN(
      size_t first, socket.Read(header, sizeof(header), first_byte_timeout_ms));
  if (first == 0) return Status::NotFound("connection closed");
  Status rest = ReadFully(socket, header + first, sizeof(header) - first,
                          rest_timeout_ms);
  if (!rest.ok()) {
    if (rest.IsNotFound() || rest.IsUnavailable()) {
      return Status::InvalidArgument("mid-frame disconnect inside header");
    }
    if (rest.IsDeadlineExceeded()) {
      return Status::InvalidArgument("peer stalled mid-frame header");
    }
    return rest;
  }
  const uint32_t body_len = GetU32(header);
  const uint32_t body_crc = GetU32(header + 4);
  if (body_len == 0) {
    return Status::InvalidArgument("zero-length frame body");
  }
  if (body_len > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame body of " + std::to_string(body_len) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte cap");
  }
  std::string body(body_len, '\0');
  Status body_read = ReadFully(socket, body.data(), body_len, rest_timeout_ms);
  if (!body_read.ok()) {
    if (body_read.IsNotFound() || body_read.IsUnavailable()) {
      return Status::InvalidArgument("mid-frame disconnect inside body");
    }
    if (body_read.IsDeadlineExceeded()) {
      return Status::InvalidArgument("peer stalled mid-frame body");
    }
    return body_read;
  }
  if (Crc32(body) != body_crc) {
    return Status::InvalidArgument("frame body failed its CRC32 check");
  }
  const uint8_t type = static_cast<uint8_t>(body[0]);
  if (!KnownType(type)) {
    return Status::InvalidArgument("unknown frame type byte " +
                                   std::to_string(type));
  }
  // The payload stays in the buffer it was read into.
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  body.erase(0, 1);
  frame.payload = std::move(body);
  return frame;
}

std::string EncodeRequest(const RequestPayload& request) {
  std::string payload;
  payload.reserve(12 + request.statement.size());
  PutU64(&payload, request.id);
  PutU32(&payload, request.deadline_ms);
  payload.append(request.statement);
  return payload;
}

Result<RequestPayload> DecodeRequest(std::string_view payload) {
  if (payload.size() < 12) {
    return Status::InvalidArgument("request payload shorter than its header");
  }
  RequestPayload request;
  request.id = GetU64(payload.data());
  request.deadline_ms = GetU32(payload.data() + 8);
  request.statement.assign(payload.substr(12));
  return request;
}

std::string EncodeReply(const ReplyPayload& reply) {
  std::string payload;
  payload.reserve(12 + reply.text.size());
  AppendReply(reply, &payload);
  return payload;
}

Result<ReplyPayload> DecodeReply(std::string payload) {
  if (payload.size() < 12) {
    return Status::InvalidArgument("reply payload shorter than its header");
  }
  ReplyPayload reply;
  reply.id = GetU64(payload.data());
  reply.code = static_cast<int32_t>(GetU32(payload.data() + 8));
  // The text keeps the payload's buffer.
  payload.erase(0, 12);
  reply.text = std::move(payload);
  return reply;
}

}  // namespace viewauth
