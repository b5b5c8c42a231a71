// run_daemon over real loopback sockets, in process: the line protocol
// and HTTP on one daemon, the request-size bound, `Connection: close`,
// and JSON escaping of load names in `loads` / `GET /loads`.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "platform/generator.hpp"
#include "support/socket.hpp"
#include "temp_path.hpp"

namespace dls::serve {
namespace {

/// A daemon on an ephemeral port in a background thread; the
/// destructor requests a drain and joins.
class RunningDaemon {
public:
  RunningDaemon() : port_file_(testutil::unique_temp_path("daemon", ".port")) {
    platform::GeneratorParams params;
    params.num_clusters = 4;
    params.ensure_connected = true;
    Rng rng(11);
    platform::Platform plat = generate_platform(params, rng);
    DaemonOptions options;
    options.port_file = port_file_;
    options.stop_requested = [this] { return stop_.load(); };
    thread_ = std::thread([this, plat = std::move(plat), options]() mutable {
      try {
        report_ = run_daemon(std::move(plat), options);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (port_ == 0 && std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port) port_ = static_cast<std::uint16_t>(port);
      else std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~RunningDaemon() { stop(); }

  const DaemonReport& stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    std::remove(port_file_.c_str());
    EXPECT_EQ(error_, "");
    return report_;
  }

  /// A blocking client whose reads give up after five seconds.
  [[nodiscard]] Socket connect() const {
    Socket sock = tcp_connect("127.0.0.1", port_);
    const ::timeval timeout{5, 0};
    (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    return sock;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

private:
  std::string port_file_;
  std::atomic<bool> stop_{false};
  std::uint16_t port_ = 0;
  DaemonReport report_;
  std::string error_;  ///< what run_daemon threw, if it did
  std::thread thread_;
};

void send_text(const Socket& sock, const std::string& text) {
  ASSERT_TRUE(send_all(sock, text.data(), text.size()));
}

/// Reads one reply line (without its newline); "" on timeout or EOF.
std::string read_line(const Socket& sock) {
  std::string line;
  char c = 0;
  while (recv_some(sock, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return "";
}

/// Reads until the daemon closes; `closed` is false on a timeout.
std::string read_to_eof(const Socket& sock, bool& closed) {
  std::string out;
  char buf[4096];
  for (;;) {
    const long got = recv_some(sock, buf, sizeof buf);
    if (got <= 0) {
      closed = got == 0;
      return out;
    }
    out.append(buf, static_cast<std::size_t>(got));
  }
}

TEST(Daemon, LineAndHttpOnOneDaemon) {
  RunningDaemon daemon;
  ASSERT_NE(daemon.port(), 0);

  // Line connections stay open across pipelined commands.
  const Socket line = daemon.connect();
  send_text(line, "ping\nhealth\n");
  EXPECT_EQ(read_line(line), "ok pong");
  EXPECT_EQ(read_line(line), "ok ok");

  // HTTP replies carry Connection: close and the daemon closes.
  const Socket http = daemon.connect();
  send_text(http, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
  bool closed = false;
  const std::string response = read_to_eof(http, closed);
  EXPECT_TRUE(closed);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("\r\nConnection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("{\"status\":\"ok\""), std::string::npos);

  // The line connection outlived the HTTP one.
  send_text(line, "quit\n");
  EXPECT_EQ(read_line(line), "ok bye");

  const DaemonReport& report = daemon.stop();
  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.bad_requests, 0u);
  EXPECT_EQ(report.exit_reason, "drained");
}

TEST(Daemon, OversizedLineGetsTheErrorAndAClose) {
  RunningDaemon daemon;
  ASSERT_NE(daemon.port(), 0);
  const Socket sock = daemon.connect();
  send_text(sock, std::string(9000, 'x') + "\n");
  bool closed = false;
  const std::string reply = read_to_eof(sock, closed);
  EXPECT_TRUE(closed);
  // "request line ..." or "command line ...", by how the bytes arrived.
  EXPECT_NE(reply.find(" line exceeds 8192 bytes"), std::string::npos) << reply;

  // A line of exactly the bound is still a command.
  const Socket ok = daemon.connect();
  send_text(ok, "ping" + std::string(8187, ' ') + "\n");
  EXPECT_EQ(read_line(ok), "ok pong");
  EXPECT_EQ(daemon.stop().bad_requests, 1u);
}

TEST(Daemon, LoadNamesAreJsonEscaped) {
  RunningDaemon daemon;
  ASSERT_NE(daemon.port(), 0);
  const Socket line = daemon.connect();
  send_text(line, "arrive 0 1 1e9 a\"b\\c\n");
  EXPECT_EQ(read_line(line), "ok admitted id=0");
  send_text(line, "loads\n");
  const std::string loads = read_line(line);
  EXPECT_NE(loads.find(R"("name":"a\"b\\c")"), std::string::npos) << loads;

  const Socket http = daemon.connect();
  send_text(http, "GET /loads HTTP/1.1\r\n\r\n");
  bool closed = false;
  const std::string response = read_to_eof(http, closed);
  EXPECT_NE(response.find(R"("name":"a\"b\\c")"), std::string::npos) << response;
}

}  // namespace
}  // namespace dls::serve
