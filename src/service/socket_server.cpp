#include "service/socket_server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/log.hpp"

namespace glitchmask::service {

namespace {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

SocketServer::SocketServer(SocketServerConfig config)
    : config_(std::move(config)) {}

SocketServer::~SocketServer() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [id, client] : clients_)
            if (client.fd >= 0) ::close(client.fd);
        clients_.clear();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(config_.socket_path.c_str());
    }
    for (const int fd : wake_pipe_)
        if (fd >= 0) ::close(fd);
}

void SocketServer::set_line_handler(LineHandler handler) {
    on_line_ = std::move(handler);
}
void SocketServer::set_disconnect_handler(DisconnectHandler handler) {
    on_disconnect_ = std::move(handler);
}
void SocketServer::set_tick_handler(TickHandler handler) {
    on_tick_ = std::move(handler);
}

void SocketServer::listen() {
    if (config_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
        throw std::runtime_error("socket path too long: " +
                                 config_.socket_path);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) fail("socket");
    ::unlink(config_.socket_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0)
        fail("bind " + config_.socket_path);
    if (::listen(listen_fd_, 16) != 0) fail("listen " + config_.socket_path);
    set_nonblocking(listen_fd_);
    if (::pipe(wake_pipe_) != 0) fail("pipe");
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);
}

void SocketServer::stop() {
    stop_.store(true, std::memory_order_relaxed);
    wake();
}

void SocketServer::wake() {
    if (wake_pipe_[1] >= 0) {
        const char byte = 'w';
        (void)!::write(wake_pipe_[1], &byte, 1);
    }
}

bool SocketServer::send(ClientId client_id, const std::string& line,
                        bool droppable) {
    bool queued = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = clients_.find(client_id);
        if (it == clients_.end() || it->second.closing) return false;
        Client& client = it->second;
        if (droppable && client.out.size() > config_.soft_buffer_bytes)
            return false;  // advisory line dropped under backpressure
        client.out += line;
        if (client.out.size() > config_.hard_buffer_bytes) {
            // The client has stopped reading; flush what fits and close.
            client.closing = true;
        }
        queued = true;
    }
    wake();
    return queued;
}

void SocketServer::run() {
    std::vector<pollfd> fds;
    std::vector<ClientId> ids;
    while (!stop_.load(std::memory_order_relaxed)) {
        fds.clear();
        ids.clear();
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto& [id, client] : clients_) {
                short events = POLLIN;
                if (!client.out.empty()) events |= POLLOUT;
                fds.push_back(pollfd{client.fd, events, 0});
                ids.push_back(id);
            }
        }
        const int ready =
            ::poll(fds.data(), fds.size(), config_.poll_interval_ms);
        if (ready < 0 && errno != EINTR) fail("poll");
        if (ready > 0) {
            if (fds[0].revents & POLLIN) accept_clients();
            if (fds[1].revents & POLLIN) drain_wake_pipe();
            for (std::size_t i = 2; i < fds.size(); ++i)
                if (fds[i].revents != 0)
                    service_client(ids[i - 2], fds[i].revents);
        }
        if (on_tick_) on_tick_();
    }
    flush_on_stop();
}

void SocketServer::flush_on_stop() {
    // Best-effort, bounded drain of queued replies (e.g. the
    // shutting_down ack a stop() request races against): a stop must not
    // eat lines already promised to connected clients, but a wedged
    // client must not be able to hold shutdown hostage either.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    for (;;) {
        std::vector<pollfd> fds;
        std::vector<ClientId> ids;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto& [id, client] : clients_) {
                if (client.out.empty()) continue;
                fds.push_back(pollfd{client.fd, POLLOUT, 0});
                ids.push_back(id);
            }
        }
        if (fds.empty()) return;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) return;
        const int ready = ::poll(fds.data(), fds.size(),
                                 static_cast<int>(left.count()));
        if (ready <= 0) {
            if (ready < 0 && errno == EINTR) continue;
            return;
        }
        for (std::size_t i = 0; i < fds.size(); ++i)
            if (fds[i].revents != 0) service_client(ids[i], POLLOUT);
    }
}

void SocketServer::accept_clients() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                return;
            log::warn(std::string("service: accept failed: ") +
                      std::strerror(errno));
            return;
        }
        set_nonblocking(fd);
        std::lock_guard<std::mutex> lock(mutex_);
        Client client;
        client.fd = fd;
        clients_[next_client_++] = std::move(client);
    }
}

void SocketServer::service_client(ClientId id, short revents) {
    if (revents & (POLLHUP | POLLERR | POLLNVAL)) {
        close_client(id);
        return;
    }
    if (revents & POLLIN) {
        char buffer[4096];
        for (;;) {
            int fd;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                const auto it = clients_.find(id);
                if (it == clients_.end()) return;
                fd = it->second.fd;
            }
            const ssize_t n = ::read(fd, buffer, sizeof buffer);
            if (n == 0) {
                close_client(id);
                return;
            }
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                if (errno == EINTR) continue;
                close_client(id);
                return;
            }
            // Only the new bytes are scanned: the unterminated tail kept in
            // `in` holds no newline.
            const std::string_view chunk(buffer, static_cast<std::size_t>(n));
            const std::size_t last_newline = chunk.rfind('\n');
            std::string complete;  // whole lines, each newline-terminated
            bool overlong = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                const auto it = clients_.find(id);
                if (it == clients_.end()) return;
                std::string& in = it->second.in;
                if (last_newline == std::string_view::npos) {
                    in += chunk;
                    overlong = in.size() > kMaxLineBytes;
                } else {
                    complete = std::move(in);
                    complete += chunk.substr(0, last_newline + 1);
                    in = chunk.substr(last_newline + 1);
                }
            }
            if (overlong) {
                log::warn("service: closing client " + std::to_string(id) +
                          ": unterminated line exceeds " +
                          std::to_string(kMaxLineBytes) + " bytes");
                close_client(id);
                return;
            }
            // Hand complete lines to the owner outside the lock (the
            // handler may call send()).
            for (std::size_t start = 0; start < complete.size();) {
                const std::size_t newline = complete.find('\n', start);
                if (newline > start && on_line_)
                    on_line_(id, complete.substr(start, newline - start));
                start = newline + 1;
            }
        }
    }
    if (revents & POLLOUT) {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto it = clients_.find(id);
        if (it == clients_.end()) return;
        Client& client = it->second;
        while (!client.out.empty()) {
            const ssize_t n =
                ::write(client.fd, client.out.data(), client.out.size());
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                if (errno == EINTR) continue;
                lock.unlock();
                close_client(id);
                return;
            }
            client.out.erase(0, static_cast<std::size_t>(n));
        }
        if (client.out.empty() && client.closing) {
            lock.unlock();
            close_client(id);
        }
    }
}

void SocketServer::close_client(ClientId id) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = clients_.find(id);
        if (it == clients_.end()) return;
        if (it->second.fd >= 0) ::close(it->second.fd);
        clients_.erase(it);
    }
    if (on_disconnect_) on_disconnect_(id);
}

void SocketServer::drain_wake_pipe() {
    char buffer[256];
    while (::read(wake_pipe_[0], buffer, sizeof buffer) > 0) {
    }
}

}  // namespace glitchmask::service
