#include "server/client.h"

#include <chrono>
#include <thread>
#include <utility>

namespace viewauth {

Result<std::unique_ptr<Client>> Client::ConnectTcp(const std::string& host,
                                                   int port,
                                                   const std::string& user,
                                                   ClientOptions options) {
  VIEWAUTH_ASSIGN_OR_RETURN(std::unique_ptr<Socket> socket,
                            viewauth::ConnectTcp(host, port,
                                                 options.io_timeout_ms));
  return Wrap(std::move(socket), user, options);
}

Result<std::unique_ptr<Client>> Client::ConnectUnix(const std::string& path,
                                                    const std::string& user,
                                                    ClientOptions options) {
  VIEWAUTH_ASSIGN_OR_RETURN(std::unique_ptr<Socket> socket,
                            viewauth::ConnectUnix(path, options.io_timeout_ms));
  return Wrap(std::move(socket), user, options);
}

Result<std::unique_ptr<Client>> Client::Wrap(std::unique_ptr<Socket> socket,
                                             const std::string& user,
                                             ClientOptions options) {
  std::unique_ptr<Client> client(new Client(std::move(socket), options));
  VIEWAUTH_RETURN_NOT_OK(client->Hello(user));
  return client;
}

Client::~Client() { Goodbye(); }

void Client::Poison() {
  if (socket_ != nullptr) {
    (void)socket_->Close();
    socket_.reset();
  }
}

Status Client::Hello(const std::string& user) {
  VIEWAUTH_ASSIGN_OR_RETURN(
      ReplyPayload ack,
      RoundTrip(FrameType::kHello, user, 0, options_.io_timeout_ms));
  if (ack.code != 0) {
    return Status(static_cast<StatusCode>(ack.code), ack.text);
  }
  return Status::OK();
}

Result<ReplyPayload> Client::RoundTrip(FrameType type,
                                       const std::string& payload,
                                       uint64_t expect_id,
                                       long long reply_wait_ms) {
  if (socket_ == nullptr) {
    return Status::Unavailable("client connection is closed");
  }
  Status sent = WriteFully(*socket_, EncodeFrame(type, payload),
                           options_.io_timeout_ms);
  if (!sent.ok()) {
    Poison();
    return sent;
  }
  // Replies arrive in request order (one session thread per
  // connection), so the next frame is ours.
  Result<Frame> read = ReadFrame(*socket_, options_.max_frame_bytes,
                                 reply_wait_ms, options_.io_timeout_ms);
  if (!read.ok()) {
    Poison();
    if (read.status().IsNotFound()) {
      return Status::Unavailable("server closed the connection");
    }
    return read.status();
  }
  if (read->type == FrameType::kError) {
    // Connection-fatal by contract: the server closes after sending it.
    Poison();
    return Status::Unavailable("server error: " + read->payload);
  }
  if (read->type != FrameType::kReply) {
    Poison();
    return Status::Internal("unexpected frame type from server");
  }
  VIEWAUTH_ASSIGN_OR_RETURN(ReplyPayload reply,
                            DecodeReply(std::move(read->payload)));
  if (reply.id != expect_id) {
    Poison();
    return Status::Internal("reply id " + std::to_string(reply.id) +
                            " does not match request id " +
                            std::to_string(expect_id));
  }
  return reply;
}

Result<std::string> Client::Execute(const std::string& statement,
                                    uint32_t deadline_ms) {
  RequestPayload request;
  request.id = next_id_++;
  request.deadline_ms = deadline_ms;
  request.statement = statement;
  // Wait out the statement's own deadline plus transport slack.
  const long long reply_wait =
      options_.io_timeout_ms +
      (deadline_ms > 0 ? static_cast<long long>(deadline_ms) : 0);
  VIEWAUTH_ASSIGN_OR_RETURN(
      ReplyPayload reply,
      RoundTrip(FrameType::kRequest, EncodeRequest(request), request.id,
                reply_wait));
  if (reply.code != 0) {
    return Status(static_cast<StatusCode>(reply.code), reply.text);
  }
  return reply.text;
}

Result<std::string> Client::Stats() {
  std::string payload(8, '\0');
  VIEWAUTH_ASSIGN_OR_RETURN(
      ReplyPayload reply,
      RoundTrip(FrameType::kStats, payload, 0, options_.io_timeout_ms));
  return reply.text;
}

void Client::Goodbye() {
  if (socket_ == nullptr) return;
  (void)WriteFully(*socket_, EncodeFrame(FrameType::kGoodbye, "bye"),
                   /*timeout_ms=*/250);
  Poison();
}

bool IsRetryable(const Status& status) {
  // Unavailable covers admission sheds, resets, degraded mode and
  // shutting-down replies; Internal/NotFound cover a connection that
  // died underneath the client. Governed aborts and semantic errors
  // would fail identically on replay.
  return status.IsUnavailable() || status.IsInternal() ||
         status.IsNotFound();
}

Result<std::string> RetryingClient::Execute(const std::string& statement,
                                            uint32_t deadline_ms) {
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      long long backoff = policy_.base_backoff_ms;
      for (int i = 1; i < attempt; ++i) backoff *= 2;
      if (backoff > policy_.max_backoff_ms) backoff = policy_.max_backoff_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    if (client_ == nullptr || !client_->alive()) {
      Result<std::unique_ptr<Client>> connected = connect_();
      if (!connected.ok()) {
        last = connected.status();
        if (!IsRetryable(last)) return last;
        client_.reset();
        continue;
      }
      if (client_ != nullptr || attempt > 0) ++reconnects_;
      client_ = std::move(*connected);
    }
    Result<std::string> outcome = client_->Execute(statement, deadline_ms);
    if (outcome.ok()) return outcome;
    last = outcome.status();
    if (!IsRetryable(last)) return last;
  }
  return last;
}

}  // namespace viewauth
