// The fault-tolerant wire-protocol front end over Engine/DurableEngine.
//
// One Server owns a listener plus a session thread per connection. Each
// session carries a user identity established by the HELLO frame; the
// identity — not anything inside the statement text — decides whose
// masks apply, so a protocol-level client cannot escalate by writing
// `as OTHER` into a retrieve (only an admin session may impersonate or
// run administrative statements). Requests execute one at a time per
// connection (clients may pipeline; frames queue in the socket with the
// kernel's bounded buffer as natural backpressure, and at most one
// reply is ever buffered server-side).
//
// Robustness is the headline:
//   * frame codec with hard size caps and CRCs — a hostile length
//     prefix allocates nothing, a flipped bit is caught before parsing
//   * per-request deadlines (request header or server default) composed
//     with the engine's own limits via the ExecContext governor
//   * reads and writes under timeouts: an idle connection is evicted
//     after idle_timeout_ms, a peer that stalls mid-frame or refuses to
//     drain a reply is evicted after io_timeout_ms
//   * admission shedding surfaces as a structured Unavailable reply,
//     never a dropped socket
//   * graceful drain: Stop() closes the listener, lets in-flight
//     requests finish, answers queued/late requests with a structured
//     shutting-down error, and force-closes stragglers only after
//     drain_timeout_ms (cancelling their retrieves first)
//
// The failure matrix lives in DESIGN.md §18.

#ifndef VIEWAUTH_SERVER_SERVER_H_
#define VIEWAUTH_SERVER_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "engine/durable.h"
#include "engine/engine.h"
#include "server/frame.h"

namespace viewauth {

struct ServerOptions {
  // Sessions beyond this are greeted with an error frame and closed.
  int max_connections = 256;
  // Eviction timeouts: a connection with no complete frame for
  // idle_timeout_ms, or one that stalls mid-frame / refuses to drain a
  // reply for io_timeout_ms, is evicted.
  long long idle_timeout_ms = 60'000;
  long long io_timeout_ms = 10'000;
  // How long Stop() waits for sessions to finish before force-closing
  // them (cancelling their in-flight retrieves first).
  long long drain_timeout_ms = 10'000;
  // Applied to requests that carry no deadline of their own; composed
  // with the engine's AuthorizationOptions limits (strictest wins).
  long long default_deadline_ms = 0;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Test hook: wraps every accepted socket (fault injection).
  std::function<std::unique_ptr<Socket>(std::unique_ptr<Socket>)>
      socket_wrapper;
};

// Counters in the AuthzStats idiom: disjoint outcomes, readable at any
// moment, rendered by ToString for the stats frame and the
// viewauth_server shutdown report.
struct ServerStats {
  long long connections_accepted = 0;
  long long connections_active = 0;
  long long connections_evicted = 0;   // timeout / backpressure kicks
  long long connections_rejected = 0;  // at capacity
  long long frames_in = 0;
  long long frames_out = 0;
  long long requests_ok = 0;
  long long requests_error = 0;  // structured error replies (any cause)
  long long requests_shed = 0;   // of which: admission control sheds
  long long requests_in_flight = 0;
  long long protocol_errors = 0;  // unparseable/corrupt/oversized frames
  long long read_timeouts = 0;
  long long write_timeouts = 0;
  long long drain_rejects = 0;  // shutting-down error replies
  long long drain_micros = 0;   // wall time of the last graceful drain

  std::string ToString() const;
};

class Server {
 public:
  // The engine must outlive the server. With a DurableEngine, mutations
  // route through the durable commit path; with a bare Engine they
  // apply in memory only.
  explicit Server(Engine* engine, ServerOptions options = {});
  explicit Server(DurableEngine* durable, ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Stops (gracefully draining) if still running.
  ~Server();

  // Takes ownership of a bound listener and starts the accept loop.
  Status Start(std::unique_ptr<ListenSocket> listener);

  // Graceful drain: stop accepting, answer late requests with a
  // structured shutting-down error, wait for in-flight work, then
  // force-close stragglers after drain_timeout_ms. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // The bound TCP port (0 for unix listeners); valid after Start.
  int port() const { return port_; }

  ServerStats stats() const;
  // The server + authorization + durability report the stats frame and
  // the viewauth_server shutdown path render.
  std::string StatsReport() const;

  Engine& engine() { return *engine_; }

 private:
  struct Session {
    uint64_t id = 0;
    std::unique_ptr<Socket> socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void RunSession(Session* session);
  // One request frame: decode, enforce identity, execute, reply.
  // Returns false when the session should end (drain reply sent).
  bool HandleRequest(Session* session, const std::string& user,
                     const Frame& frame);
  // The session-identity policy described in the class comment.
  Status ApplySessionIdentity(Statement* statement,
                              const std::string& user) const;
  Result<std::string> ExecuteStatement(const Statement& statement,
                                       const ExecLimits& limits);
  // Best-effort framed send under the io timeout; a failure or timeout
  // marks the connection for eviction.
  bool SendFrame(Session* session, FrameType type, std::string_view payload);
  // SendFrame for a frame already encoded (EncodeReplyFrame).
  bool SendEncoded(Session* session, std::string_view frame);
  void ReapFinishedSessionsLocked();

  Engine* engine_;
  DurableEngine* durable_;  // null when serving a bare Engine
  ServerOptions options_;

  std::unique_ptr<ListenSocket> listener_;
  std::thread accept_thread_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_accepting_{false};

  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace viewauth

#endif  // VIEWAUTH_SERVER_SERVER_H_
