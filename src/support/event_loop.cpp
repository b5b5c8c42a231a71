#include "support/event_loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace dls {

EventLoop::EventLoop(std::uint16_t port, const std::string& port_file,
                     const std::function<void(std::uint16_t)>& on_listen)
    : listener_(tcp_listen(port)) {
  set_nonblocking(listener_, true);
  port_ = local_port(listener_);
  if (!port_file.empty()) {
    std::ofstream pf(port_file, std::ios::trunc);
    require(pf.good(), "cannot write port file '" + port_file + "'");
    pf << port_ << "\n";
  }
  if (on_listen) on_listen(port_);
}

bool EventLoop::poll(int timeout_ms) {
  std::erase_if(conns_, [](const auto& entry) { return entry.second.eof; });

  std::vector<::pollfd> fds;
  fds.push_back({listener_.fd(), POLLIN, 0});
  for (const auto& [fd, conn] : conns_) fds.push_back({fd, POLLIN, 0});
  const int ready = poll_sockets(fds, timeout_ms);

  if (fds[0].revents & POLLIN) {
    for (;;) {
      Socket accepted(::accept(listener_.fd(), nullptr, nullptr));
      if (!accepted.valid()) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) break;
        throw Error(std::string("socket: accept(): ") + std::strerror(errno));
      }
      const int one = 1;
      (void)::setsockopt(accepted.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      set_nonblocking(accepted, true);
      const int fd = accepted.fd();
      conns_[fd] = Conn{std::move(accepted), {}, now_ns(), false};
    }
  }

  ready_.clear();
  char buf[65536];
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    Conn& conn = conns_.at(fds[i].fd);
    const std::size_t before = conn.in.size();
    try {
      for (;;) {
        const long got = recv_some(conn.sock, buf, sizeof buf);
        if (got < 0) break;  // drained
        if (got == 0) {      // EOF or reset
          conn.eof = true;
          break;
        }
        conn.in.append(buf, static_cast<std::size_t>(got));
      }
    } catch (const Error&) {
      conn.eof = true;  // a hard read error ends the connection too
    }
    if (conn.in.size() > before) conn.last_read_ns = now_ns();
    if (conn.in.size() > before || conn.eof) ready_.push_back(fds[i].fd);
  }
  return ready > 0;
}

}  // namespace dls
