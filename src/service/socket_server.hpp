// Local-socket transport for the campaign daemon: an AF_UNIX stream
// listener with a single poll loop, newline-framed input, and bounded
// per-client output buffers.
//
// Responsibilities end at framing -- the server hands complete lines to a
// callback and writes back whatever lines the owner enqueues.  Two
// properties the daemon depends on:
//
//   * Writers never block the poll loop or an executor: send() appends to
//     an in-memory buffer and wakes the loop through a self-pipe; the
//     loop drains buffers as POLLOUT allows.  A client that stops reading
//     first loses *droppable* lines (progress events) past the soft cap,
//     then is disconnected at the hard cap -- the daemon's memory is
//     bounded by slow clients, never its correctness.
//   * Input is bounded too: a client whose unterminated line grows past
//     kMaxLineBytes is disconnected.
//   * A disconnect is not a cancellation: the server only reports it
//     (on_disconnect); whether the job keeps running is the daemon's
//     decision (it does -- results land in the cache for re-query).
//
// Thread model: run() owns the poll loop on the calling thread; send()
// and wake() are safe from any thread; everything else (callbacks) runs
// on the loop thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace glitchmask::service {

/// Longest unterminated input line a client may send before it is
/// disconnected (requests are a few hundred bytes).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

struct SocketServerConfig {
    std::string socket_path;
    /// Output buffer caps per client: droppable lines are discarded past
    /// `soft_buffer_bytes`, the connection is closed past
    /// `hard_buffer_bytes`.
    std::size_t soft_buffer_bytes = 256 * 1024;
    std::size_t hard_buffer_bytes = 4 * 1024 * 1024;
    /// Poll timeout; bounds the latency of stop()/wake() observation.
    int poll_interval_ms = 200;
};

class SocketServer {
public:
    using ClientId = std::uint64_t;
    /// Complete input line (without the newline) from a client.
    using LineHandler = std::function<void(ClientId, const std::string&)>;
    using DisconnectHandler = std::function<void(ClientId)>;
    /// Called once per loop iteration (after I/O); the daemon uses it to
    /// poll its signal token.
    using TickHandler = std::function<void()>;

    explicit SocketServer(SocketServerConfig config);
    ~SocketServer();

    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;

    void set_line_handler(LineHandler handler);
    void set_disconnect_handler(DisconnectHandler handler);
    void set_tick_handler(TickHandler handler);

    /// Binds and listens; throws std::runtime_error on failure.  Unlinks
    /// a stale socket file first.
    void listen();

    /// Runs the poll loop until stop().  Call after listen().
    void run();

    /// Requests loop exit from any thread (or a signal handler via
    /// wake(): stop() itself is not async-signal-safe).
    void stop();

    /// Enqueues one line for `client`.  `droppable` marks advisory lines
    /// (progress) the server may discard under backpressure.  False when
    /// the client is gone or the line was dropped.
    bool send(ClientId client, const std::string& line, bool droppable);

    /// Wakes the poll loop (safe from other threads).
    void wake();

    [[nodiscard]] const std::string& socket_path() const noexcept {
        return config_.socket_path;
    }

private:
    struct Client {
        int fd = -1;
        std::string in;
        std::string out;        // drained by the loop under POLLOUT
        bool closing = false;   // hard cap exceeded: drop after flush
    };

    void accept_clients();
    void service_client(ClientId id, short revents);
    void close_client(ClientId id);
    void drain_wake_pipe();
    void flush_on_stop();

    SocketServerConfig config_;
    LineHandler on_line_;
    DisconnectHandler on_disconnect_;
    TickHandler on_tick_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::atomic<bool> stop_{false};

    std::mutex mutex_;  // guards clients_ (send() runs off-loop)
    std::map<ClientId, Client> clients_;
    ClientId next_client_ = 1;
};

}  // namespace glitchmask::service
