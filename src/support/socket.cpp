#include "support/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "support/error.hpp"

namespace dls {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error("socket: " + what + ": " + std::strerror(errno));
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(std::uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail("socket()");
  const int one = 1;
  (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    fail("bind(port " + std::to_string(port) + ")");
  if (::listen(sock.fd(), backlog) != 0) fail("listen()");
  return sock;
}

std::uint16_t local_port(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("getsockname()");
  return ntohs(addr.sin_port);
}

Socket tcp_connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  require(::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) == 1,
          "socket: cannot parse host '" + host + "' (use a dotted quad)");

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail("socket()");
  for (;;) {
    if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0)
      break;
    if (errno == EINTR) continue;
    fail("connect(" + host + ":" + std::to_string(port) + ")");
  }
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

void set_nonblocking(const Socket& socket, bool enabled) {
  const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
  if (flags < 0) fail("fcntl(F_GETFL)");
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(socket.fd(), F_SETFL, next) < 0) fail("fcntl(F_SETFL)");
}

bool send_all(const Socket& socket, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(socket.fd(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Blocking sockets only block here under extreme backpressure;
      // ride it out with poll rather than spinning.
      std::vector<::pollfd> fds{{socket.fd(), POLLOUT, 0}};
      (void)poll_sockets(fds, 1000);
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
    fail("send()");
  }
  return true;
}

long recv_some(const Socket& socket, char* buffer, std::size_t capacity) {
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), buffer, capacity, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNRESET) return 0;  // dead peer == EOF to the caller
    fail("recv()");
  }
}

int poll_sockets(std::vector<::pollfd>& fds, int timeout_ms) {
  for (;;) {
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    fail("poll()");
  }
}

}  // namespace dls
