// The single-threaded TCP server loop under `dls serve` and the
// campaign coordinator. It owns the listener, the accepted sockets,
// each connection's input buffer and the time of its last read; one
// poll() call is one poll(2) round that accepts every pending
// connection and reads each readable one until EAGAIN. Callers parse
// and consume `Conn::in` themselves (serve::parse_request,
// dist::parse_frame), reply with send_all, keep their own per-fd state
// and pick each round's timeout — there are no timers or callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/socket.hpp"

namespace dls {

class EventLoop {
public:
  struct Conn {
    Socket sock;
    std::string in;                  ///< received, not yet consumed
    std::uint64_t last_read_ns = 0;  ///< now_ns() at accept and at each read
    /// The peer closed or reset. Bytes read before it stay in `in`;
    /// the next poll() closes the connection.
    bool eof = false;
  };

  /// Listens on 0.0.0.0:`port` (0 = ephemeral), writes the bound port
  /// to `port_file` when non-empty, then calls `on_listen`. Throws
  /// dls::Error when either fails.
  EventLoop(std::uint16_t port, const std::string& port_file,
            const std::function<void(std::uint16_t)>& on_listen = {});

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// One round of at most `timeout_ms`. False when it timed out with
  /// nothing ready (a timer wakeup).
  bool poll(int timeout_ms);

  /// The fds that received bytes or hit eof in the last round, ascending.
  [[nodiscard]] const std::vector<int>& ready() const { return ready_; }

  [[nodiscard]] Conn& conn(int fd) { return conns_.at(fd); }
  [[nodiscard]] const std::map<int, Conn>& conns() const { return conns_; }

  void close(int fd) { conns_.erase(fd); }

private:
  Socket listener_;
  std::uint16_t port_ = 0;
  std::map<int, Conn> conns_;
  std::vector<int> ready_;
};

}  // namespace dls
