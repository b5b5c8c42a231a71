// Thin RAII wrappers over POSIX TCP sockets and poll(2).
//
// Deliberately minimal: blocking or non-blocking stream sockets over
// IPv4, loopback-friendly, no TLS, no name resolution beyond dotted
// quads and "localhost". The servers (`dls serve` and the campaign
// coordinator) run them through support::EventLoop; clients (dist
// workers, the benchmark's load generator) use them directly — a
// worker keeps one blocking socket guarded by a write mutex for its
// heartbeat thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

struct pollfd;  // <poll.h>

namespace dls {

/// Move-only owner of a socket file descriptor.
class Socket {
public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

private:
  int fd_ = -1;
};

/// Binds and listens on 0.0.0.0:`port` (0 = ephemeral, see local_port).
/// Throws dls::Error on failure (port in use, out of descriptors, ...).
[[nodiscard]] Socket tcp_listen(std::uint16_t port, int backlog = 16);

/// The locally bound port (resolves port 0 after tcp_listen).
[[nodiscard]] std::uint16_t local_port(const Socket& socket);

/// Connects to host:port ("127.0.0.1", "localhost", or a dotted quad).
/// Throws dls::Error when the connection is refused or times out.
[[nodiscard]] Socket tcp_connect(const std::string& host, std::uint16_t port);

void set_nonblocking(const Socket& socket, bool enabled);

/// Writes the whole buffer, riding out partial writes and EINTR; false
/// when the peer is gone (EPIPE/ECONNRESET — never raises SIGPIPE).
[[nodiscard]] bool send_all(const Socket& socket, const char* data,
                            std::size_t size);

/// One read: bytes received, 0 on orderly EOF, -1 when a non-blocking
/// socket has nothing pending. Throws dls::Error on hard errors other
/// than connection reset (a reset reads as EOF — the caller's dead-peer
/// path is the same either way).
[[nodiscard]] long recv_some(const Socket& socket, char* buffer,
                             std::size_t capacity);

/// poll(2) with EINTR retry; returns the number of ready entries.
[[nodiscard]] int poll_sockets(std::vector<::pollfd>& fds, int timeout_ms);

}  // namespace dls
