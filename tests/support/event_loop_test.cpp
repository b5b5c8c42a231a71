// support::EventLoop on an ephemeral loopback port: byte-at-a-time
// reassembly, several requests in one segment, EOF and reset as
// closes, and accepts while other connections stay open. The tests are
// single-threaded: a client's connect completes in the kernel backlog,
// so the loop's rounds and the client's sends interleave in one thread.
#include "support/event_loop.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/timer.hpp"
#include "temp_path.hpp"

namespace dls {
namespace {

/// Runs rounds until `done()` holds; false after two seconds without.
template <typename Pred>
bool pump(EventLoop& loop, Pred done) {
  const std::uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (!done()) {
    if (now_ns() > deadline) return false;
    (void)loop.poll(10);
  }
  return true;
}

void send_text(const Socket& sock, const std::string& text) {
  ASSERT_TRUE(send_all(sock, text.data(), text.size()));
}

/// Pops every complete newline-terminated line off the buffer.
std::vector<std::string> take_lines(std::string& in) {
  std::vector<std::string> lines;
  for (std::size_t eol; (eol = in.find('\n')) != std::string::npos;) {
    lines.push_back(in.substr(0, eol));
    in.erase(0, eol + 1);
  }
  return lines;
}

/// The fd of the only open connection (accepting it first if needed).
int only_conn(EventLoop& loop) {
  EXPECT_TRUE(pump(loop, [&] { return loop.conns().size() == 1; }));
  return loop.conns().begin()->first;
}

TEST(EventLoop, PortFileAndOnListenSeeTheBoundPort) {
  const std::string path = testutil::unique_temp_path("event-loop", ".port");
  std::uint16_t announced = 0;
  EventLoop loop(0, path, [&](std::uint16_t port) { announced = port; });
  EXPECT_NE(loop.port(), 0);
  EXPECT_EQ(announced, loop.port());
  std::ifstream in(path);
  int written = 0;
  in >> written;
  EXPECT_EQ(written, loop.port());
  std::remove(path.c_str());
}

TEST(EventLoop, BytesArrivingOneAtATimeReassemble) {
  EventLoop loop(0, "");
  const Socket client = tcp_connect("127.0.0.1", loop.port());
  const int fd = only_conn(loop);
  const std::uint64_t accepted_at = loop.conn(fd).last_read_ns;

  const std::string message = "arrive 2 1.5 4000 app0\n";
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < message.size(); ++i) {
    send_text(client, message.substr(i, 1));
    ASSERT_TRUE(pump(loop, [&] { return loop.conn(fd).in.size() == i + 1; }))
        << "byte " << i << " never arrived";
    ASSERT_EQ(loop.ready(), std::vector<int>{fd});
    const auto got = take_lines(loop.conn(fd).in);
    lines.insert(lines.end(), got.begin(), got.end());
    if (i + 1 < message.size()) {
      EXPECT_TRUE(lines.empty());
    }
  }
  EXPECT_EQ(lines, std::vector<std::string>{"arrive 2 1.5 4000 app0"});
  EXPECT_GE(loop.conn(fd).last_read_ns, accepted_at);
  EXPECT_FALSE(loop.conn(fd).eof);
}

TEST(EventLoop, TwoRequestsInOneSegmentAreBothDelivered) {
  EventLoop loop(0, "");
  const Socket client = tcp_connect("127.0.0.1", loop.port());
  const int fd = only_conn(loop);
  send_text(client, "ping\nstats\n");
  ASSERT_TRUE(pump(loop, [&] { return loop.conn(fd).in.size() == 11; }));
  EXPECT_EQ(take_lines(loop.conn(fd).in),
            (std::vector<std::string>{"ping", "stats"}));
  EXPECT_TRUE(loop.conn(fd).in.empty());
}

TEST(EventLoop, PeerEofMidRequestClosesWithoutAPartialRequest) {
  EventLoop loop(0, "");
  Socket client = tcp_connect("127.0.0.1", loop.port());
  const int fd = only_conn(loop);
  send_text(client, "GET /met");
  client.close();

  ASSERT_TRUE(pump(loop, [&] { return loop.conn(fd).eof; }));
  EXPECT_EQ(loop.ready(), std::vector<int>{fd});
  // The bytes before the EOF are kept, but they never form a request.
  EXPECT_EQ(loop.conn(fd).in, "GET /met");
  EXPECT_TRUE(take_lines(loop.conn(fd).in).empty());
  // The next round closes it.
  (void)loop.poll(0);
  EXPECT_TRUE(loop.conns().empty());
}

TEST(EventLoop, ResetReadsAsClose) {
  EventLoop loop(0, "");
  Socket client = tcp_connect("127.0.0.1", loop.port());
  const int fd = only_conn(loop);
  // SO_LINGER with a zero timeout turns close() into a RST.
  const ::linger abort_on_close{1, 0};
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                         sizeof abort_on_close),
            0);
  client.close();

  ASSERT_TRUE(pump(loop, [&] { return loop.conn(fd).eof; }));
  EXPECT_TRUE(loop.conn(fd).in.empty());
  (void)loop.poll(0);
  EXPECT_TRUE(loop.conns().empty());
}

TEST(EventLoop, AcceptsNewConnectionsWhileOthersAreOpen) {
  EventLoop loop(0, "");
  const Socket first = tcp_connect("127.0.0.1", loop.port());
  const int first_fd = only_conn(loop);
  send_text(first, "partial");
  ASSERT_TRUE(pump(loop, [&] { return loop.conn(first_fd).in == "partial"; }));

  const Socket second = tcp_connect("127.0.0.1", loop.port());
  const Socket third = tcp_connect("127.0.0.1", loop.port());
  ASSERT_TRUE(pump(loop, [&] { return loop.conns().size() == 3; }));

  send_text(second, "two\n");
  send_text(first, " done\n");
  const auto others = [&] {
    std::vector<std::string> in;
    for (const auto& [fd, conn] : loop.conns())
      if (fd != first_fd) in.push_back(conn.in);
    std::sort(in.begin(), in.end());
    return in;
  };
  // Buffers never mix: each connection holds only its own bytes.
  ASSERT_TRUE(pump(loop, [&] {
    return loop.conn(first_fd).in == "partial done\n" &&
           others() == std::vector<std::string>{"", "two\n"};
  }));
  loop.close(first_fd);
  EXPECT_EQ(loop.conns().size(), 2u);
}

}  // namespace
}  // namespace dls
