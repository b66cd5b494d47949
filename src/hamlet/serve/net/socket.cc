#include "hamlet/serve/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hamlet {
namespace serve {
namespace net {

namespace {

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> ListenTcp(uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Status::Internal(ErrnoText("socket"));
  const int one = 1;
  // Fast restart: a served-and-closed port lingers in TIME_WAIT.
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Unavailable(
        ErrnoText(("bind 127.0.0.1:" + std::to_string(port)).c_str()));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    return Status::Internal(ErrnoText("listen"));
  }
  return sock;
}

Result<uint16_t> LocalPort(const Socket& sock) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(ErrnoText("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> AcceptConnection(const Socket& listener) {
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      // The server coalesces a batch's responses into one send, so
      // Nagle would only hold the tail of that send until the client
      // ACKs the previous one.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(ErrnoText("accept"));
  }
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Status::Internal(ErrnoText("socket"));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address \"" + host + "\"");
  }
  while (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return Status::Unavailable(
        ErrnoText(("connect " + host + ":" + std::to_string(port)).c_str()));
  }
  return sock;
}

Status SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(ErrnoText("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status LineReader::Fill() {
  char chunk[4096];
  while (true) {
    // read(2), not recv(2): the framing tests drive a LineReader over a
    // pipe, and sockets read identically through it.
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("read: ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      eof_ = true;
    } else {
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    return Status::OK();
  }
}

Status LineReader::CheckFragment(size_t size) const {
  if (size <= max_line_bytes_) return Status::OK();
  return Status::InvalidArgument("request line exceeds " +
                                 std::to_string(max_line_bytes_) + " bytes");
}

Result<bool> LineReader::ReadLine(std::string& line) {
  while (true) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line.assign(StripCr(std::string_view(buffer_).substr(pos_, nl - pos_)));
      pos_ = nl + 1;
      // Compact once the consumed prefix dominates, keeping the buffer
      // bounded without copying on every line.
      if (pos_ > buffer_.size() / 2 && pos_ > 4096) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    if (eof_) {
      if (pos_ >= buffer_.size()) return false;
      // std::getline semantics: the trailing unterminated fragment is
      // still a line.
      line.assign(StripCr(std::string_view(buffer_).substr(pos_)));
      pos_ = buffer_.size();
      return true;
    }
    HAMLET_RETURN_IF_ERROR(CheckFragment(buffer_.size() - pos_));
    HAMLET_RETURN_IF_ERROR(Fill());
  }
}

Result<bool> LineReader::ReadLines(std::vector<std::string_view>& lines) {
  lines.clear();
  // The previous call's views are dead: drop the bytes behind them.
  // What remains is at most one unterminated fragment.
  buffer_.erase(0, pos_);
  pos_ = 0;
  if (!eof_) {
    HAMLET_RETURN_IF_ERROR(CheckFragment(buffer_.size()));
    HAMLET_RETURN_IF_ERROR(Fill());
  }
  const std::string_view data(buffer_);
  for (size_t nl; (nl = data.find('\n', pos_)) != std::string_view::npos;
       pos_ = nl + 1) {
    lines.push_back(StripCr(data.substr(pos_, nl - pos_)));
  }
  if (eof_) {
    if (pos_ < data.size()) {
      lines.push_back(StripCr(data.substr(pos_)));
      pos_ = data.size();
    }
    return !lines.empty();
  }
  return true;
}

}  // namespace net
}  // namespace serve
}  // namespace hamlet
