// Fixture: a clean portable public header — guarded, self-contained.
// The comment below must NOT trip isa-hermeticity: prose mentioning an
// #ifdef __AVX2__ block is exactly what the lexer strips before scanning.
#ifndef FIXTURE_UHD_CORE_THING_HPP
#define FIXTURE_UHD_CORE_THING_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uhd::core {

struct thing {
    std::vector<std::uint64_t> words;
    std::size_t count = 0;
};

std::uint64_t reduce(const thing& t);
void scan(const std::uint8_t* q, std::size_t n);

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_THING_HPP
