#include "drive.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>

#include "uhd/common/error.hpp"

namespace perfbench {

using namespace uhd;

namespace {

/// A reply that takes longer than this counts as a timeout.
constexpr long reply_timeout_s = 30;
constexpr std::size_t receive_buffer = 1 << 20;

} // namespace

frame_set make_frames(const workload_spec& spec, const client_inputs& client,
                      const oracle& oracle) {
    frame_set out;
    out.predicts.resize(client.pool.size());
    for (std::size_t i = 0; i < client.pool.size(); ++i) {
        const net::opcode op =
            oracle.dynamic(i) ? net::opcode::predict_dynamic : net::opcode::predict;
        if (spec.raw) {
            net::append_predict_raw(out.predicts[i], op, 0, client.pool.image(i));
        } else {
            net::append_predict_encoded(
                out.predicts[i], op, 0,
                oracle.encoded_pool().subspan(i * spec.dim, spec.dim));
        }
    }
    out.fits.resize(client.fit_stream.size());
    for (std::size_t k = 0; k < client.fit_stream.size(); ++k) {
        net::append_partial_fit(out.fits[k], 0,
                                static_cast<std::uint32_t>(client.fit_stream.label(k)),
                                client.fit_stream.image(k));
    }
    return out;
}

load_generator::load_generator(std::uint16_t port, const frame_set& frames,
                               const std::vector<std::uint32_t>& order,
                               std::vector<std::uint32_t> true_labels,
                               const reply_checker& checker, std::size_t fit_every)
    : sock_(net::connect_tcp("127.0.0.1", port)),
      frames_(frames),
      order_(order),
      true_labels_(std::move(true_labels)),
      checker_(checker),
      fit_every_(fit_every),
      in_(receive_buffer) {
    records_.reserve(expected_requests);
    net::set_tcp_nodelay(sock_.get());
    timeval tv{};
    tv.tv_sec = reply_timeout_s;
    if (::setsockopt(sock_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
        throw uhd::error("setsockopt(SO_RCVTIMEO) failed");
    }
    begin_phase();
}

void load_generator::begin_phase() {
    phase_ = phase_result{};
    phase_.predict_us.reserve(expected_requests);
    phase_wall_ = now_ns();
    phase_cpu_ = thread_cpu_ns();
}

phase_result load_generator::end_phase() {
    phase_.wall_ns = now_ns() - phase_wall_;
    phase_.loadgen_cpu_ns = thread_cpu_ns() - phase_cpu_;
    phase_result out = std::move(phase_);
    begin_phase();
    return out;
}

void load_generator::queue_predict(std::size_t pool_index) {
    const std::vector<std::uint8_t>& frame = frames_.predicts[pool_index];
    const std::size_t base = out_.size();
    out_.insert(out_.end(), frame.begin(), frame.end());
    net::store_u32(out_.data() + base + 4, static_cast<std::uint32_t>(records_.size()));
    records_.push_back({0, static_cast<std::uint32_t>(pool_index), kind::predict, false});
    ++outstanding_;
}

void load_generator::queue_fit() {
    const std::vector<std::uint8_t>& frame = frames_.fits[next_fit_];
    const std::size_t base = out_.size();
    out_.insert(out_.end(), frame.begin(), frame.end());
    net::store_u32(out_.data() + base + 4, static_cast<std::uint32_t>(records_.size()));
    records_.push_back({0, static_cast<std::uint32_t>(next_fit_), kind::fit, false});
    ++next_fit_;
    ++outstanding_;
}

void load_generator::flush() {
    if (out_.empty()) return;
    const std::int64_t now = now_ns();
    for (std::size_t k = records_.size(); k-- > 0 && records_[k].sent_ns == 0;) {
        records_[k].sent_ns = now;
    }
    std::size_t sent = 0;
    while (sent < out_.size()) {
        const ssize_t n = ::send(sock_.get(), out_.data() + sent, out_.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            out_.clear();
            fail_outstanding();
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
    out_.clear();
}

void load_generator::receive() {
    if (in_begin_ == in_end_) {
        in_begin_ = in_end_ = 0;
    } else if (in_.size() - in_end_ < receive_buffer / 4) {
        std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
        in_end_ -= in_begin_;
        in_begin_ = 0;
    }
    ssize_t n = 0;
    do {
        n = ::recv(sock_.get(), in_.data() + in_end_, in_.size() - in_end_, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) { // closed, or no reply within the timeout
        fail_outstanding();
        return;
    }
    in_end_ += static_cast<std::size_t>(n);
    while (in_end_ - in_begin_ >= net::wire_header_size) {
        const net::frame_header header = net::decode_header(in_.data() + in_begin_);
        if (header.magic != net::wire_magic || header.payload_len > receive_buffer / 2) {
            fail_outstanding(); // the stream is desynchronized
            return;
        }
        const std::size_t size = net::wire_header_size + header.payload_len;
        if (in_end_ - in_begin_ < size) break;
        on_reply(header, in_.data() + in_begin_ + net::wire_header_size);
        in_begin_ += size;
    }
}

void load_generator::on_reply(const net::frame_header& header,
                              const std::uint8_t* payload) {
    const std::int64_t now = now_ns();
    ++answered_;
    ++phase_.answered;
    if (header.request_id >= records_.size() || records_[header.request_id].done) {
        ++failed_; // a reply to nothing we sent
        ++phase_.failed;
        return;
    }
    record& r = records_[header.request_id];
    r.done = true;
    --outstanding_;
    const std::span<const std::uint8_t> body(payload, header.payload_len);
    bool ok = false;
    if (r.what == kind::predict) {
        const std::uint8_t request_op = frames_.predicts[r.index][3];
        const auto reply = net::parse_predict_reply(body);
        if (header.op == (request_op | net::reply_bit) && reply.has_value()) {
            const auto expected = checker_.label(r.index, reply->snapshot_version);
            ok = expected.has_value() && *expected == reply->label &&
                 (!required_version_ || *required_version_ == reply->snapshot_version);
            if (ok && reply->label == true_labels_[r.index]) ++phase_.true_labels;
        }
        phase_.predict_us.push_back(ok ? static_cast<double>(now - r.sent_ns) * 1e-3
                                       : missed);
    } else {
        const auto reply = net::parse_partial_fit_reply(body);
        if (header.op == net::reply_opcode(net::opcode::partial_fit) &&
            reply.has_value()) {
            const net::partial_fit_reply expected = checker_.fit_reply(r.index + 1);
            ok = reply->updates == expected.updates &&
                 reply->snapshot_version == expected.snapshot_version;
        }
        phase_.fit_us.push_back(ok ? static_cast<double>(now - r.sent_ns) * 1e-3
                                   : missed);
    }
    if (!ok) {
        ++failed_;
        ++phase_.failed;
    }
    if (trace_ != nullptr) trace_->add("request", r.sent_ns, now, 0, header.request_id);
}

void load_generator::fail_outstanding() {
    broken_ = true;
    for (record& r : records_) {
        if (r.done) continue;
        r.done = true;
        ++failed_;
        ++phase_.failed;
        (r.what == kind::predict ? phase_.predict_us : phase_.fit_us).push_back(missed);
    }
    outstanding_ = 0;
}

template <typename Next>
void load_generator::pump(std::size_t depth, Next&& next, std::int64_t until_ns) {
    bool more = true;
    while (!broken_ && (more || outstanding_ > 0) && now_ns() < until_ns) {
        while (more && outstanding_ < depth) more = next();
        flush();
        if (!broken_ && outstanding_ > 0) receive();
    }
}

void load_generator::run_until(std::int64_t until_ns) {
    pump(
        window,
        [&] {
            if (fit_every_ != 0 && mixed_ % fit_every_ == fit_every_ - 1 &&
                next_fit_ < frames_.fits.size()) {
                queue_fit();
            } else {
                queue_predict(order_[cursor_++ % order_.size()]);
            }
            ++mixed_;
            return true;
        },
        until_ns);
}

void load_generator::send_remaining_fits(std::size_t depth) {
    pump(depth, [&] {
        if (next_fit_ == frames_.fits.size()) return false;
        queue_fit();
        return true;
    });
}

void load_generator::accuracy_pass(std::uint64_t version) {
    required_version_ = version;
    std::size_t next = 0;
    pump(window, [&] {
        if (next == frames_.predicts.size()) return false;
        queue_predict(next++);
        return true;
    });
    required_version_.reset();
}

void load_generator::drain() {
    pump(window, [] { return false; });
}

} // namespace perfbench
