#include "uhd/common/io.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "uhd/common/error.hpp"

namespace uhd::io {

void write_bytes(std::ostream& os, const void* data, std::size_t n) {
    os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    UHD_REQUIRE(os.good(), "stream write failed");
}

void read_bytes(std::istream& is, void* data, std::size_t n) {
    is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    UHD_REQUIRE(is.gcount() == static_cast<std::streamsize>(n), "stream read truncated");
}

void require_count(std::uint64_t count, std::size_t max_count) {
    UHD_REQUIRE(count <= max_count, "stored element count " + std::to_string(count) +
                                        " exceeds the bound " +
                                        std::to_string(max_count));
}

void write_header(std::ostream& os, std::uint32_t magic, std::uint32_t version) {
    write_u32(os, magic);
    write_u32(os, version);
}

std::uint32_t read_header(std::istream& is, std::uint32_t magic, std::uint32_t max_version) {
    const std::uint32_t stored_magic = read_u32(is);
    UHD_REQUIRE(stored_magic == magic, "bad file magic");
    const std::uint32_t version = read_u32(is);
    UHD_REQUIRE(version <= max_version, "file version newer than library");
    return version;
}

void write_u32(std::ostream& os, std::uint32_t v) { write_bytes(os, &v, sizeof v); }
void write_u64(std::ostream& os, std::uint64_t v) { write_bytes(os, &v, sizeof v); }
void write_i64(std::ostream& os, std::int64_t v) { write_bytes(os, &v, sizeof v); }
void write_f64(std::ostream& os, double v) { write_bytes(os, &v, sizeof v); }

std::uint32_t read_u32(std::istream& is) {
    std::uint32_t v{};
    read_bytes(is, &v, sizeof v);
    return v;
}

std::uint64_t read_u64(std::istream& is) {
    std::uint64_t v{};
    read_bytes(is, &v, sizeof v);
    return v;
}

std::int64_t read_i64(std::istream& is) {
    std::int64_t v{};
    read_bytes(is, &v, sizeof v);
    return v;
}

double read_f64(std::istream& is) {
    double v{};
    read_bytes(is, &v, sizeof v);
    return v;
}

} // namespace uhd::io
