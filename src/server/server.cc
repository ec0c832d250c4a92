#include "server/server.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "parser/parser.h"

namespace viewauth {

namespace {

using Clock = std::chrono::steady_clock;

// The accept loop's poll slice and the session read loop's first-byte
// slice: how quickly either notices a stop/drain flag. Short enough
// that drains feel immediate, long enough that idle sessions cost a
// handful of wakeups per second.
constexpr long long kPollSliceMs = 50;

// Hello payloads are user names; anything longer is a protocol error.
constexpr size_t kMaxHelloBytes = 256;

long long ElapsedMicros(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

}  // namespace

std::string ServerStats::ToString() const {
  std::ostringstream out;
  out << "server stats:\n"
      << "  connections:      " << connections_accepted << " accepted, "
      << connections_active << " active, " << connections_evicted
      << " evicted, " << connections_rejected << " rejected\n"
      << "  frames:           " << frames_in << " in, " << frames_out
      << " out\n"
      << "  requests:         " << requests_ok << " ok, " << requests_error
      << " error (" << requests_shed << " shed), " << requests_in_flight
      << " in flight\n"
      << "  protocol errors:  " << protocol_errors << "\n"
      << "  timeouts:         " << read_timeouts << " read, "
      << write_timeouts << " write\n"
      << "  drain:            " << drain_rejects << " reject(s), last drain "
      << drain_micros << "us\n";
  return out.str();
}

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), durable_(nullptr), options_(std::move(options)) {}

Server::Server(DurableEngine* durable, ServerOptions options)
    : engine_(&durable->engine()),
      durable_(durable),
      options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start(std::unique_ptr<ListenSocket> listener) {
  if (running_.load()) return Status::Internal("server already started");
  listener_ = std::move(listener);
  port_ = listener_->port();
  stop_accepting_.store(false);
  draining_.store(false);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      ReapFinishedSessionsLocked();
    }
    Result<std::unique_ptr<Socket>> accepted = listener_->Accept(kPollSliceMs);
    if (!accepted.ok()) {
      // The timeout is the loop's heartbeat; anything else is transient
      // (or the listener going away under Stop) — keep looping, the
      // stop flag decides.
      continue;
    }
    std::unique_ptr<Socket> socket = std::move(*accepted);
    if (options_.socket_wrapper) {
      socket = options_.socket_wrapper(std::move(socket));
    }
    int active = 0;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      active = static_cast<int>(stats_.connections_active);
    }
    if (active >= options_.max_connections) {
      // Shed the connection with a structured goodbye, not a slam. The
      // counter is bumped BEFORE the error frame goes out so the books
      // never lag what a peer has already observed on the wire.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_rejected;
      }
      std::string frame = EncodeFrame(
          FrameType::kError, "server at capacity (" +
                                 std::to_string(options_.max_connections) +
                                 " connections); retry later");
      (void)WriteFully(*socket, frame, kPollSliceMs);
      (void)socket->Close();
      continue;
    }
    auto session = std::make_unique<Session>();
    session->socket = std::move(socket);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_accepted;
      ++stats_.connections_active;
    }
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    session->id = next_session_id_++;
    Session* raw = session.get();
    session->thread = std::thread(&Server::RunSession, this, raw);
    sessions_.push_back(std::move(session));
  }
}

void Server::ReapFinishedSessionsLocked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Server::SendFrame(Session* session, FrameType type,
                       std::string_view payload) {
  return SendEncoded(session, EncodeFrame(type, payload));
}

bool Server::SendEncoded(Session* session, std::string_view frame) {
  Status written =
      WriteFully(*session->socket, frame, options_.io_timeout_ms);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (written.ok()) {
    ++stats_.frames_out;
    return true;
  }
  // A peer that will not drain its reply is a slow client: evict.
  if (written.IsDeadlineExceeded()) ++stats_.write_timeouts;
  ++stats_.connections_evicted;
  return false;
}

Status Server::ApplySessionIdentity(Statement* statement,
                                    const std::string& user) const {
  if (user == kAdminUser) return Status::OK();
  // Non-admin sessions act strictly as themselves: their identity is
  // the HELLO identity, and administrative statements are refused at
  // the protocol boundary (the paper scopes administration to the
  // database administrator).
  auto bind_user = [&user](std::string* as_user) -> Status {
    if (as_user->empty()) {
      *as_user = user;
      return Status::OK();
    }
    if (*as_user != user) {
      return Status::PermissionDenied("session user '" + user +
                                      "' may not act as '" + *as_user + "'");
    }
    return Status::OK();
  };
  if (auto* retrieve = std::get_if<RetrieveStmt>(statement)) {
    return bind_user(&retrieve->as_user);
  }
  if (auto* insert = std::get_if<InsertStmt>(statement)) {
    return bind_user(&insert->as_user);
  }
  if (auto* del = std::get_if<DeleteStmt>(statement)) {
    return bind_user(&del->as_user);
  }
  if (auto* modify = std::get_if<ModifyStmt>(statement)) {
    return bind_user(&modify->as_user);
  }
  return Status::PermissionDenied(
      "administrative statement requires an admin session (session user '" +
      user + "')");
}

Result<std::string> Server::ExecuteStatement(const Statement& statement,
                                             const ExecLimits& limits) {
  if (durable_ != nullptr) return durable_->ExecuteParsed(statement, &limits);
  return engine_->ExecuteParsed(statement, &limits);
}

bool Server::HandleRequest(Session* session, const std::string& user,
                           const Frame& frame) {
  Result<RequestPayload> decoded = DecodeRequest(frame.payload);
  if (!decoded.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.protocol_errors;
    }
    (void)SendFrame(session, FrameType::kError, decoded.status().message());
    return false;
  }
  const RequestPayload& request = *decoded;
  ReplyPayload reply;
  reply.id = request.id;
  if (user.empty()) {
    reply.code = static_cast<int32_t>(StatusCode::kPermissionDenied);
    reply.text = "hello required before requests";
  } else if (draining_.load(std::memory_order_acquire)) {
    reply.code = static_cast<int32_t>(StatusCode::kUnavailable);
    reply.text = "server is shutting down";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.drain_rejects;
  } else {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests_in_flight;
    }
    Result<std::string> outcome = [&]() -> Result<std::string> {
      VIEWAUTH_ASSIGN_OR_RETURN(Statement statement,
                                ParseStatement(request.statement));
      VIEWAUTH_RETURN_NOT_OK(ApplySessionIdentity(&statement, user));
      // A client's deadline can only tighten the server's default.
      ExecLimits requested;
      requested.deadline_ms = static_cast<long long>(request.deadline_ms);
      ExecLimits server_default;
      server_default.deadline_ms = options_.default_deadline_ms;
      return ExecuteStatement(statement,
                              TightenLimits(server_default, requested));
    }();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      --stats_.requests_in_flight;
    }
    if (outcome.ok()) {
      reply.code = 0;
      reply.text = std::move(*outcome);
    } else {
      reply.code = static_cast<int32_t>(outcome.status().code());
      reply.text = outcome.status().message();
    }
  }
  std::string encoded = EncodeReplyFrame(reply);
  const size_t body_bytes = encoded.size() - kFrameHeaderBytes;
  if (body_bytes > options_.max_frame_bytes) {
    // The rendering outgrew the frame cap; deliver a structured error
    // instead of an unframeable reply.
    ReplyPayload too_large;
    too_large.id = reply.id;
    too_large.code = static_cast<int32_t>(StatusCode::kResourceExhausted);
    too_large.text = "reply of " + std::to_string(body_bytes - 1) +
                     " bytes exceeds the frame cap; narrow the request";
    reply = std::move(too_large);
    encoded = EncodeReplyFrame(reply);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (reply.code == 0) {
      ++stats_.requests_ok;
    } else {
      ++stats_.requests_error;
      if (reply.code == static_cast<int32_t>(StatusCode::kUnavailable)) {
        ++stats_.requests_shed;
      }
    }
  }
  return SendEncoded(session, encoded);
}

void Server::RunSession(Session* session) {
  std::string user;
  auto idle_deadline =
      Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
  for (;;) {
    const bool drain_now = draining_.load(std::memory_order_acquire);
    // During a drain, only already-buffered frames are read (timeout 0):
    // each queued request gets its structured shutting-down reply, then
    // the connection closes.
    Result<Frame> read = ReadFrame(
        *session->socket, options_.max_frame_bytes,
        /*first_byte_timeout_ms=*/drain_now ? 0 : kPollSliceMs,
        /*rest_timeout_ms=*/drain_now
            ? std::min<long long>(options_.io_timeout_ms, 250)
            : options_.io_timeout_ms);
    if (!read.ok()) {
      const Status& status = read.status();
      if (status.IsDeadlineExceeded()) {
        if (drain_now) {
          (void)SendFrame(session, FrameType::kError,
                          "server is shutting down");
          break;
        }
        if (Clock::now() >= idle_deadline) {
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.read_timeouts;
            ++stats_.connections_evicted;
          }
          (void)SendFrame(session, FrameType::kError,
                          "idle timeout; connection evicted");
          break;
        }
        continue;
      }
      if (status.IsNotFound()) break;  // clean close at a frame boundary
      if (status.IsInvalidArgument()) {
        // Oversized, corrupt, truncated or stalled frame: the stream
        // cannot be resynchronized. Best-effort error, then close.
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.protocol_errors;
        }
        (void)SendFrame(session, FrameType::kError, status.message());
      }
      break;  // reset or internal error: just close
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_in;
    }
    idle_deadline =
        Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
    const Frame& frame = *read;
    if (frame.type == FrameType::kHello) {
      if (frame.payload.empty() || frame.payload.size() > kMaxHelloBytes) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.protocol_errors;
        }
        (void)SendFrame(session, FrameType::kError, "malformed hello");
        break;
      }
      user = frame.payload;
      ReplyPayload ack;
      ack.id = 0;
      ack.code = 0;
      ack.text = "hello " + user;
      if (!SendEncoded(session, EncodeReplyFrame(ack))) break;
      continue;
    }
    if (frame.type == FrameType::kRequest) {
      if (!HandleRequest(session, user, frame)) break;
      continue;
    }
    if (frame.type == FrameType::kStats) {
      ReplyPayload reply;
      if (frame.payload.size() >= 8) {
        uint64_t id = 0;
        for (int i = 7; i >= 0; --i) {
          id = (id << 8) |
               static_cast<unsigned char>(frame.payload[static_cast<size_t>(i)]);
        }
        reply.id = id;
      }
      reply.code = 0;
      reply.text = StatsReport();
      if (!SendEncoded(session, EncodeReplyFrame(reply))) break;
      continue;
    }
    if (frame.type == FrameType::kGoodbye) break;
    // A client has no business sending reply/error frames.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.protocol_errors;
    }
    (void)SendFrame(session, FrameType::kError,
                    "unexpected frame type from client");
    break;
  }
  (void)session->socket->Shutdown();
  (void)session->socket->Close();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    --stats_.connections_active;
  }
  session->done.store(true, std::memory_order_release);
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const auto drain_start = Clock::now();
  draining_.store(true, std::memory_order_release);
  engine_->SetDraining(true);
  stop_accepting_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_ != nullptr) (void)listener_->Close();

  // Give sessions the drain window to finish their in-flight requests
  // and answer queued ones; they notice the drain flag within one poll
  // slice.
  const auto force_deadline =
      drain_start + std::chrono::milliseconds(options_.drain_timeout_ms);
  for (;;) {
    bool all_done = true;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (const auto& session : sessions_) {
        if (!session->done.load(std::memory_order_acquire)) {
          all_done = false;
          break;
        }
      }
    }
    if (all_done) break;
    if (Clock::now() >= force_deadline) {
      // Stragglers: cancel their retrieves (they abort at the next
      // governor probe) and shut their sockets so blocked I/O wakes.
      engine_->CancelActiveRetrieves();
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (const auto& session : sessions_) {
        if (!session->done.load(std::memory_order_acquire)) {
          (void)session->socket->Shutdown();
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.connections_evicted;
        }
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& session : sessions_) {
      if (session->thread.joinable()) session->thread.join();
    }
    sessions_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.drain_micros = ElapsedMicros(drain_start);
    stats_.connections_active = 0;
  }
  // Leave the engine usable for whoever owns it next.
  engine_->SetDraining(false);
  draining_.store(false, std::memory_order_release);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string Server::StatsReport() const {
  std::string report = stats().ToString();
  report += engine_->authz_stats().ToString();
  if (durable_ != nullptr) report += durable_->stats().ToString();
  return report;
}

}  // namespace viewauth
