// Thin RAII + setup helpers over POSIX TCP sockets — everything the wire
// layer needs and nothing more (IPv4 loopback-oriented; the serve story
// is a local or rack-local front-end, not a general network stack).
#ifndef UHD_NET_SOCKET_HPP
#define UHD_NET_SOCKET_HPP

#include <cstdint>
#include <string>

namespace uhd::net {

/// Owning file descriptor: closes on destruction, move-only.
class socket_fd {
public:
    socket_fd() = default;
    explicit socket_fd(int fd) noexcept : fd_(fd) {}
    socket_fd(const socket_fd&) = delete;
    socket_fd& operator=(const socket_fd&) = delete;
    // listen_tcp and connect_tcp return by value, so the products need it
    // declared, but elide every move; tests move sockets.
    // uhd-lint: test-reference test_wire_reactors moves socket_fds into its fd-exhaustion vector
    socket_fd(socket_fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    socket_fd& operator=(socket_fd&& other) noexcept {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    ~socket_fd() { reset(); }

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

    /// Close the held descriptor (if any) and adopt `fd`.
    void reset(int fd = -1) noexcept;

private:
    int fd_ = -1;
};

/// Non-blocking IPv4 listener on 127.0.0.1:`port` (0 = ephemeral) with
/// SO_REUSEADDR. With `reuse_port`, SO_REUSEPORT is set too so several
/// listeners can share one port (the kernel load-balances accepts across
/// them — the multi-reactor server's sharding mechanism); every listener
/// on the port must set it, including the first. Throws uhd::error on
/// failure.
[[nodiscard]] socket_fd listen_tcp(std::uint16_t port, int backlog,
                                   bool reuse_port = false);

/// Blocking connect to `host`:`port` with TCP_NODELAY set. Throws
/// uhd::error on failure.
[[nodiscard]] socket_fd connect_tcp(const std::string& host, std::uint16_t port);

/// Disable Nagle (small request/response frames; latency over batching).
void set_tcp_nodelay(int fd);

/// The locally bound port of a listening/connected socket.
[[nodiscard]] std::uint16_t local_port(int fd);

} // namespace uhd::net

#endif // UHD_NET_SOCKET_HPP
