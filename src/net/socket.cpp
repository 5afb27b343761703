#include "uhd/net/socket.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "uhd/common/error.hpp"

namespace uhd::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw uhd::error(std::string(what) + ": " + std::strerror(errno));
}

} // namespace

void socket_fd::reset(int fd) noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
}

socket_fd listen_tcp(std::uint16_t port, int backlog, bool reuse_port) {
    socket_fd sock(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
    if (!sock.valid()) throw_errno("socket()");
    const int one = 1;
    if (::setsockopt(sock.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
        throw_errno("setsockopt(SO_REUSEADDR)");
    }
    if (reuse_port &&
        ::setsockopt(sock.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
        throw_errno("setsockopt(SO_REUSEPORT)");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(sock.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        throw_errno("bind()");
    }
    if (::listen(sock.get(), backlog) != 0) throw_errno("listen()");
    return sock;
}

socket_fd connect_tcp(const std::string& host, std::uint16_t port) {
    socket_fd sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) throw_errno("socket()");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw uhd::error("connect_tcp: bad IPv4 address: " + host);
    }
    if (::connect(sock.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        throw_errno("connect()");
    }
    set_tcp_nodelay(sock.get());
    return sock;
}

void set_tcp_nodelay(int fd) {
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
        throw_errno("setsockopt(TCP_NODELAY)");
    }
}

std::uint16_t local_port(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        throw_errno("getsockname()");
    }
    return ntohs(addr.sin_port);
}

} // namespace uhd::net
