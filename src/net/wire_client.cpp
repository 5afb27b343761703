#include "uhd/net/wire_client.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "uhd/common/error.hpp"

namespace uhd::net {

wire_client::wire_client(const std::string& host, std::uint16_t port)
    : sock_(connect_tcp(host, port)) {}

void wire_client::set_recv_timeout_ms(long ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    if (::setsockopt(sock_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
        0) {
        throw uhd::error("setsockopt(SO_RCVTIMEO) failed");
    }
}

void wire_client::send_bytes(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(sock_.get(), bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw uhd::error(std::string("send() failed: ") +
                             std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
}

namespace {

void recv_exact(int fd, std::uint8_t* out, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, out + got, len - got, 0);
        if (n == 0) throw uhd::error("connection closed by server mid-frame");
        if (n < 0) {
            if (errno == EINTR) continue;
            throw uhd::error(std::string("recv() failed: ") +
                             std::strerror(errno));
        }
        got += static_cast<std::size_t>(n);
    }
}

} // namespace

wire_frame wire_client::read_frame() {
    std::uint8_t raw[wire_header_size];
    recv_exact(sock_.get(), raw, sizeof(raw));
    wire_frame frame;
    frame.header = decode_header(raw);
    UHD_REQUIRE(frame.header.magic == wire_magic,
                "reply frame has bad magic (client desynced?)");
    // Reply payloads are small; a huge length means a desynced stream.
    UHD_REQUIRE(frame.header.payload_len <= (64U << 20),
                "reply frame payload implausibly large");
    frame.payload.resize(frame.header.payload_len);
    if (!frame.payload.empty()) {
        recv_exact(sock_.get(), frame.payload.data(), frame.payload.size());
    }
    return frame;
}

wire_frame wire_client::roundtrip(std::span<const std::uint8_t> request) {
    send_bytes(request);
    return read_frame();
}

namespace {

[[noreturn]] void throw_error_frame(const wire_frame& frame) {
    std::string message = "wire error";
    if (frame.payload.size() >= 2) {
        message += " (code " + std::to_string(load_u16(frame.payload.data())) +
                   "): " +
                   std::string(frame.payload.begin() + 2, frame.payload.end());
    }
    throw uhd::error(message);
}

} // namespace

// uhd-lint: test-reference test_wire_protocol and test_wire_reactors send one-shot encoded predicts with it
predict_reply wire_client::predict_encoded(
    std::span<const std::int32_t> encoded, bool dynamic) {
    const std::uint32_t id = next_request_id_++;
    std::vector<std::uint8_t> out;
    append_predict_encoded(out,
                           dynamic ? opcode::predict_dynamic : opcode::predict,
                           id, encoded);
    const wire_frame reply = roundtrip(out);
    if (reply.header.op == op_error) throw_error_frame(reply);
    UHD_REQUIRE(reply.header.request_id == id, "reply id mismatch");
    const auto parsed = parse_predict_reply(reply.payload);
    UHD_REQUIRE(parsed.has_value(), "malformed predict reply payload");
    return *parsed;
}

// uhd-lint: test-reference test_wire_protocol and test_wire_reactors send one-shot raw predicts with it
predict_reply wire_client::predict_raw(std::span<const std::uint8_t> features,
                                       bool dynamic) {
    const std::uint32_t id = next_request_id_++;
    std::vector<std::uint8_t> out;
    append_predict_raw(out, dynamic ? opcode::predict_dynamic : opcode::predict,
                       id, features);
    const wire_frame reply = roundtrip(out);
    if (reply.header.op == op_error) throw_error_frame(reply);
    UHD_REQUIRE(reply.header.request_id == id, "reply id mismatch");
    const auto parsed = parse_predict_reply(reply.payload);
    UHD_REQUIRE(parsed.has_value(), "malformed predict reply payload");
    return *parsed;
}

// uhd-lint: test-reference test_wire_protocol and test_wire_reactors send one-shot fits with it
partial_fit_reply wire_client::partial_fit(
    std::uint32_t label, std::span<const std::uint8_t> features) {
    const std::uint32_t id = next_request_id_++;
    std::vector<std::uint8_t> out;
    append_partial_fit(out, id, label, features);
    const wire_frame reply = roundtrip(out);
    if (reply.header.op == op_error) throw_error_frame(reply);
    UHD_REQUIRE(reply.header.request_id == id, "reply id mismatch");
    const auto parsed = parse_partial_fit_reply(reply.payload);
    UHD_REQUIRE(parsed.has_value(), "malformed partial_fit reply payload");
    return *parsed;
}

stats_reply wire_client::stats() {
    const std::uint32_t id = next_request_id_++;
    std::vector<std::uint8_t> out;
    append_frame(out, static_cast<std::uint8_t>(opcode::stats), id, {});
    const wire_frame reply = roundtrip(out);
    if (reply.header.op == op_error) throw_error_frame(reply);
    UHD_REQUIRE(reply.header.request_id == id, "reply id mismatch");
    const auto parsed = parse_stats_reply(reply.payload);
    UHD_REQUIRE(parsed.has_value(), "malformed stats reply payload");
    return *parsed;
}

void wire_client::ping() {
    const std::uint32_t id = next_request_id_++;
    const std::uint8_t probe[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    std::vector<std::uint8_t> out;
    append_frame(out, static_cast<std::uint8_t>(opcode::ping), id,
                 std::span<const std::uint8_t>(probe, sizeof(probe)));
    const wire_frame reply = roundtrip(out);
    if (reply.header.op == op_error) throw_error_frame(reply);
    UHD_REQUIRE(reply.header.request_id == id, "reply id mismatch");
    UHD_REQUIRE(reply.payload.size() == sizeof(probe) &&
                    std::memcmp(reply.payload.data(), probe, sizeof(probe)) == 0,
                "ping payload not echoed");
}

} // namespace uhd::net
