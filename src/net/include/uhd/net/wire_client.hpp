// Blocking wire-protocol client: frame-level send/receive plus one-shot
// request helpers. Used by the tests and by uhd_loadgen; pipelining
// callers send a window of frames with send_bytes() and then pull the
// replies with read_frame() one by one.
#ifndef UHD_NET_WIRE_CLIENT_HPP
#define UHD_NET_WIRE_CLIENT_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "uhd/net/socket.hpp"
#include "uhd/net/wire_format.hpp"

namespace uhd::net {

/// One received frame: validated-by-size header + owned payload.
struct wire_frame {
    frame_header header;
    std::vector<std::uint8_t> payload;
};

/// Blocking client over one TCP connection.
class wire_client {
public:
    /// Connect to host:port (TCP_NODELAY on). Throws uhd::error.
    wire_client(const std::string& host, std::uint16_t port);

    /// Receive timeout for subsequent reads (0 = block forever). Lets
    /// tests fail fast instead of hanging on a protocol bug.
    void set_recv_timeout_ms(long ms);

    /// Send raw bytes (handles partial writes). Throws uhd::error.
    void send_bytes(std::span<const std::uint8_t> bytes);

    /// Read exactly one frame (header + payload). Throws uhd::error on
    /// EOF, timeout, or a header that is not a sane uHD frame.
    [[nodiscard]] wire_frame read_frame();

    // -- one-shot helpers (send one request, read its reply) ------------

    /// predict / predict_dynamic with a pre-encoded query. Throws
    /// uhd::error on an error reply.
    [[nodiscard]] predict_reply predict_encoded(
        std::span<const std::int32_t> encoded, bool dynamic = false);

    /// predict / predict_dynamic with raw u8 features.
    [[nodiscard]] predict_reply predict_raw(
        std::span<const std::uint8_t> features, bool dynamic = false);

    /// Online training step.
    [[nodiscard]] partial_fit_reply partial_fit(
        std::uint32_t label, std::span<const std::uint8_t> features);

    /// Server + engine counters.
    [[nodiscard]] stats_reply stats();

    /// Round-trip a ping (payload echoed; checked).
    void ping();

private:
    [[nodiscard]] wire_frame roundtrip(std::span<const std::uint8_t> request);

    socket_fd sock_;
    std::uint32_t next_request_id_ = 1;
};

} // namespace uhd::net

#endif // UHD_NET_WIRE_CLIENT_HPP
