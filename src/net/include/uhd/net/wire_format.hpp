// uHD wire protocol: compact length-prefixed binary frames.
//
// Every frame is a fixed 12-byte little-endian header followed by an
// opaque payload:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     2  magic        0x7548 ("Hu" on the wire, little-endian)
//        2     1  version      protocol version, currently 1
//        3     1  opcode       request/reply kind (table below)
//        4     4  request_id   echoed verbatim in the reply; clients use
//                              it to match pipelined responses
//        8     4  payload_len  payload bytes following the header
//
// Request opcodes (client -> server); each reply echoes the request
// opcode with the high bit set (op | 0x80), or op_error (0xFF):
//
//   op               payload
//   ---------------  ----------------------------------------------------
//   predict (1)      u8 kind, then the query: kind 0 = raw u8 features
//                    (encoder pixel count bytes; the engine's encode
//                    stage encodes them, op_error(unsupported) when the
//                    engine has no encoder),
//                    kind 1 = pre-encoded int32 accumulators (dim * 4
//                    bytes, little-endian). Reply: u32 label,
//                    u64 snapshot_version.
//   predict_dynamic  same payload as predict; answered through the
//   (2)              early-exit cascade. op_error(unsupported) when the
//                    engine has no dynamic policy. Reply as predict.
//   partial_fit (3)  u32 label, then raw u8 features. Reply: u64 updates
//                    (cumulative fits on this server), u64 published
//                    snapshot version.
//   stats (4)        empty. Reply: 17 x u64 (see stats_reply).
//   ping (5)         arbitrary; echoed back verbatim.
//
// Error replies (op_error) carry: u16 error code, then a human-readable
// message (not NUL-terminated). Protocol-level errors (bad magic/version,
// oversized payload) poison the stream — the server sends the error frame
// and disconnects; request-level errors (bad opcode/payload, unsupported)
// answer just that frame and the connection lives on.
//
// This header is the single source of truth for both sides: the server,
// the blocking client, the load generator and the fuzz tests all
// encode/decode through these helpers.
#ifndef UHD_NET_WIRE_FORMAT_HPP
#define UHD_NET_WIRE_FORMAT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace uhd::net {

inline constexpr std::uint16_t wire_magic = 0x7548;
inline constexpr std::uint8_t wire_version = 1;
inline constexpr std::size_t wire_header_size = 12;

/// Frame kinds. Replies echo the request opcode with the high bit set.
enum class opcode : std::uint8_t {
    predict = 1,         ///< full-scan classification
    predict_dynamic = 2, ///< early-exit cascade classification
    partial_fit = 3,     ///< online training step
    stats = 4,           ///< server + engine counters
    ping = 5,            ///< liveness / RTT probe; payload echoed
};

inline constexpr std::uint8_t reply_bit = 0x80;
inline constexpr std::uint8_t op_error = 0xFF;

/// Make the reply opcode for a request opcode.
[[nodiscard]] constexpr std::uint8_t reply_opcode(opcode op) noexcept {
    return static_cast<std::uint8_t>(static_cast<std::uint8_t>(op) | reply_bit);
}

/// Error codes carried in the first two payload bytes of op_error frames.
enum class wire_error : std::uint16_t {
    bad_magic = 1,   ///< first two header bytes are not wire_magic
    bad_version = 2, ///< protocol version mismatch
    bad_opcode = 3,  ///< unknown request opcode
    bad_payload = 4, ///< payload malformed for the opcode
    unsupported = 5, ///< valid request the server cannot serve
    oversized = 6,   ///< payload_len above the server's cap
    internal = 7,    ///< engine-side failure answering the request
};

/// predict/predict_dynamic payload kinds (first payload byte).
enum class query_kind : std::uint8_t {
    raw = 0,     ///< u8 features, encoder.pixels() bytes
    encoded = 1, ///< int32 accumulators, dim * 4 bytes little-endian
};

/// Decoded frame header.
struct frame_header {
    std::uint16_t magic = 0;
    std::uint8_t version = 0;
    std::uint8_t op = 0;
    std::uint32_t request_id = 0;
    std::uint32_t payload_len = 0;
};

// -- little-endian scalar helpers -------------------------------------
// memcpy + explicit byte math: well-defined on any host endianness and
// compiled to plain loads/stores on little-endian machines.

inline void store_u16(std::uint8_t* out, std::uint16_t v) noexcept {
    out[0] = static_cast<std::uint8_t>(v & 0xFF);
    out[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_u32(std::uint8_t* out, std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) {
        out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
    }
}

inline void store_u64(std::uint8_t* out, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
    }
}

[[nodiscard]] inline std::uint16_t load_u16(const std::uint8_t* in) noexcept {
    return static_cast<std::uint16_t>(in[0] |
                                      (static_cast<std::uint16_t>(in[1]) << 8));
}

[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* in) noexcept {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
    return v;
}

[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* in) noexcept {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
    return v;
}

// -- header + frame encode/decode -------------------------------------

/// Serialize a header into exactly wire_header_size bytes at `out`.
inline void encode_header(std::uint8_t* out, std::uint8_t op,
                          std::uint32_t request_id,
                          std::uint32_t payload_len) noexcept {
    store_u16(out, wire_magic);
    out[2] = wire_version;
    out[3] = op;
    store_u32(out + 4, request_id);
    store_u32(out + 8, payload_len);
}

/// Decode a header from at least wire_header_size bytes. Purely
/// structural: magic/version/opcode validation is the caller's business
/// (the server answers each malformed case differently).
[[nodiscard]] inline frame_header decode_header(const std::uint8_t* in) noexcept {
    frame_header h;
    h.magic = load_u16(in);
    h.version = in[2];
    h.op = in[3];
    h.request_id = load_u32(in + 4);
    h.payload_len = load_u32(in + 8);
    return h;
}

/// Append one complete frame (header + payload) to `out`.
inline void append_frame(std::vector<std::uint8_t>& out, std::uint8_t op,
                         std::uint32_t request_id,
                         std::span<const std::uint8_t> payload) {
    const std::size_t base = out.size();
    out.resize(base + wire_header_size + payload.size());
    encode_header(out.data() + base, op, request_id,
                  static_cast<std::uint32_t>(payload.size()));
    if (!payload.empty()) {
        std::memcpy(out.data() + base + wire_header_size, payload.data(),
                    payload.size());
    }
}

/// Append an error frame: u16 code + message bytes.
inline void append_error_frame(std::vector<std::uint8_t>& out,
                               std::uint32_t request_id, wire_error code,
                               std::string_view message) {
    std::vector<std::uint8_t> payload(2 + message.size());
    store_u16(payload.data(), static_cast<std::uint16_t>(code));
    if (!message.empty()) {
        std::memcpy(payload.data() + 2, message.data(), message.size());
    }
    append_frame(out, op_error, request_id, payload);
}

// -- payload helpers shared by server, client and tests ----------------

/// Append a predict/predict_dynamic request with a pre-encoded query.
inline void append_predict_encoded(std::vector<std::uint8_t>& out, opcode op,
                                   std::uint32_t request_id,
                                   std::span<const std::int32_t> encoded) {
    std::vector<std::uint8_t> payload(1 + encoded.size() * 4);
    payload[0] = static_cast<std::uint8_t>(query_kind::encoded);
    for (std::size_t i = 0; i < encoded.size(); ++i) {
        store_u32(payload.data() + 1 + i * 4,
                  static_cast<std::uint32_t>(encoded[i]));
    }
    append_frame(out, static_cast<std::uint8_t>(op), request_id, payload);
}

/// Append a predict/predict_dynamic request with raw u8 features.
inline void append_predict_raw(std::vector<std::uint8_t>& out, opcode op,
                               std::uint32_t request_id,
                               std::span<const std::uint8_t> features) {
    std::vector<std::uint8_t> payload(1 + features.size());
    payload[0] = static_cast<std::uint8_t>(query_kind::raw);
    if (!features.empty()) {
        std::memcpy(payload.data() + 1, features.data(), features.size());
    }
    append_frame(out, static_cast<std::uint8_t>(op), request_id, payload);
}

/// Append a partial_fit request: u32 label + raw u8 features.
inline void append_partial_fit(std::vector<std::uint8_t>& out,
                               std::uint32_t request_id, std::uint32_t label,
                               std::span<const std::uint8_t> features) {
    std::vector<std::uint8_t> payload(4 + features.size());
    store_u32(payload.data(), label);
    if (!features.empty()) {
        std::memcpy(payload.data() + 4, features.data(), features.size());
    }
    append_frame(out, static_cast<std::uint8_t>(opcode::partial_fit),
                 request_id, payload);
}

/// Decoded predict reply payload.
struct predict_reply {
    std::uint32_t label = 0;
    std::uint64_t snapshot_version = 0;
};

/// Parse a predict/predict_dynamic reply payload; nullopt on bad size.
[[nodiscard]] inline std::optional<predict_reply>
parse_predict_reply(std::span<const std::uint8_t> payload) noexcept {
    if (payload.size() != 12) return std::nullopt;
    predict_reply r;
    r.label = load_u32(payload.data());
    r.snapshot_version = load_u64(payload.data() + 4);
    return r;
}

/// Decoded partial_fit reply payload.
struct partial_fit_reply {
    std::uint64_t updates = 0;
    std::uint64_t snapshot_version = 0;
};

/// Parse a partial_fit reply payload; nullopt on bad size.
[[nodiscard]] inline std::optional<partial_fit_reply>
parse_partial_fit_reply(std::span<const std::uint8_t> payload) noexcept {
    if (payload.size() != 16) return std::nullopt;
    partial_fit_reply r;
    r.updates = load_u64(payload.data());
    r.snapshot_version = load_u64(payload.data() + 8);
    return r;
}

/// Decoded stats reply payload: engine counters then wire counters (wire
/// counters are summed over every reactor shard; `reactors` is the shard
/// count that produced the sums).
struct stats_reply {
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    std::uint64_t kernel_calls = 0;
    std::uint64_t snapshot_swaps = 0;
    std::uint64_t max_batch_observed = 0;
    std::uint64_t snapshot_version = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_active = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t throttle_events = 0;
    std::uint64_t reactors = 0;           ///< epoll loop threads serving
    std::uint64_t raw_queries = 0;        ///< raw-feature requests encoded
                                          ///< by the engine's encode stage
    std::uint64_t encode_kernel_calls = 0; ///< batch encode drain calls
};

inline constexpr std::size_t stats_reply_fields = 17;
inline constexpr std::size_t stats_reply_size = stats_reply_fields * 8;

/// Serialize a stats reply payload (17 x u64, little-endian).
inline void encode_stats_reply(std::uint8_t* out, const stats_reply& s) noexcept {
    const std::uint64_t fields[stats_reply_fields] = {
        s.queries,     s.batches,   s.kernel_calls,
        s.snapshot_swaps, s.max_batch_observed, s.snapshot_version,
        s.connections_accepted, s.connections_active, s.frames_in,
        s.frames_out,  s.bytes_in,  s.bytes_out,
        s.malformed_frames, s.throttle_events, s.reactors,
        s.raw_queries, s.encode_kernel_calls,
    };
    for (std::size_t i = 0; i < stats_reply_fields; ++i) {
        store_u64(out + i * 8, fields[i]);
    }
}

/// Parse a stats reply payload; nullopt on bad size.
[[nodiscard]] inline std::optional<stats_reply>
parse_stats_reply(std::span<const std::uint8_t> payload) noexcept {
    if (payload.size() != stats_reply_size) return std::nullopt;
    stats_reply s;
    std::uint64_t fields[stats_reply_fields];
    for (std::size_t i = 0; i < stats_reply_fields; ++i) {
        fields[i] = load_u64(payload.data() + i * 8);
    }
    s.queries = fields[0];
    s.batches = fields[1];
    s.kernel_calls = fields[2];
    s.snapshot_swaps = fields[3];
    s.max_batch_observed = fields[4];
    s.snapshot_version = fields[5];
    s.connections_accepted = fields[6];
    s.connections_active = fields[7];
    s.frames_in = fields[8];
    s.frames_out = fields[9];
    s.bytes_in = fields[10];
    s.bytes_out = fields[11];
    s.malformed_frames = fields[12];
    s.throttle_events = fields[13];
    s.reactors = fields[14];
    s.raw_queries = fields[15];
    s.encode_kernel_calls = fields[16];
    return s;
}

} // namespace uhd::net

#endif // UHD_NET_WIRE_FORMAT_HPP
