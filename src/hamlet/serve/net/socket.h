// Minimal dependency-free TCP building blocks for the serving
// front-end (elbencho BasicSocket shape: a thin RAII fd plus the few
// blocking helpers a line-protocol service needs — no event library,
// no framework).
//
// Everything here is blocking; concurrency comes from the caller's
// threads (NetServer runs one reader thread per connection plus an
// acceptor). All helpers report failures through Status with errno
// text, never exceptions.

#ifndef HAMLET_SERVE_NET_SOCKET_H_
#define HAMLET_SERVE_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"

namespace hamlet {
namespace serve {
namespace net {

/// Owning file-descriptor wrapper (sockets here, but any fd works —
/// the framing tests run LineReader over a pipe). Move-only; closes on
/// destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// shutdown(2) the read side: wakes a reader blocked in recv with a
  /// clean EOF. Used to stop per-connection readers on server shutdown
  /// without closing the fd out from under an in-flight writer.
  void ShutdownRead();
  /// shutdown(2) the write side: signals EOF to the peer's reader while
  /// keeping our read side open (client "send all, then read all").
  void ShutdownWrite();
  /// shutdown(2) both sides. On Linux this also wakes a thread blocked
  /// in accept(2) on a listening socket, which close(2) does not
  /// reliably do — the server's shutdown path relies on it.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// Binds and listens on 127.0.0.1:`port` (port 0 = OS-assigned
/// ephemeral port, read it back with LocalPort). Loopback only: the
/// front-end is a single-host rung, not an exposure surface.
HAMLET_NODISCARD Result<Socket> ListenTcp(uint16_t port, int backlog = 64);

/// The locally bound port of a listening/connected socket.
HAMLET_NODISCARD Result<uint16_t> LocalPort(const Socket& sock);

/// Blocking accept; the connection gets TCP_NODELAY. An error after the
/// listener was closed is the normal shutdown path; callers treat it as
/// "stop accepting".
HAMLET_NODISCARD Result<Socket> AcceptConnection(const Socket& listener);

/// Blocking connect to `host`:`port` (numeric IPv4 dotted quad).
HAMLET_NODISCARD Result<Socket> ConnectTcp(const std::string& host,
                                           uint16_t port);

/// Writes all `len` bytes, retrying short writes and EINTR. SIGPIPE is
/// suppressed (MSG_NOSIGNAL): a vanished peer is a Status, not a
/// process kill.
HAMLET_NODISCARD Status SendAll(int fd, const char* data, size_t len);

/// Longest accepted request line, including the newline. Longer lines
/// poison the connection: an unbounded line is either a protocol
/// violation or an attack, and buffering it unboundedly is the worse
/// failure.
inline constexpr size_t kMaxLineBytes = 1 << 16;

/// Buffered newline framing over a blocking fd, std::getline
/// semantics: returns lines without their '\n', strips a trailing
/// '\r', and yields a final unterminated partial line before EOF.
class LineReader {
 public:
  explicit LineReader(int fd, size_t max_line_bytes = kMaxLineBytes)
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  /// True with `line` filled, false on clean EOF. Oversized lines and
  /// read errors return a Status.
  HAMLET_NODISCARD Result<bool> ReadLine(std::string& line);

  /// Whole-read framing: makes one read(2) and replaces `lines` with
  /// every complete line now buffered (same framing as ReadLine; at EOF
  /// the final unterminated fragment). The views point into the
  /// reader's buffer and stay valid until the next call. True while the
  /// stream continues (`lines` may be empty when the read ended
  /// mid-line), false once EOF was reached and every line was handed
  /// out. An oversized line or a read error returns a Status on the
  /// call after the lines framed before it.
  HAMLET_NODISCARD Result<bool> ReadLines(std::vector<std::string_view>& lines);

 private:
  /// One read(2) appended to buffer_ (EINTR retried); sets eof_ on 0.
  HAMLET_NODISCARD Status Fill();
  /// The oversize Status for an unterminated fragment of `size` bytes.
  HAMLET_NODISCARD Status CheckFragment(size_t size) const;

  int fd_;
  size_t max_line_bytes_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
};

}  // namespace net
}  // namespace serve
}  // namespace hamlet

#endif  // HAMLET_SERVE_NET_SOCKET_H_
