#include "uhd/common/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "uhd/common/error.hpp"

namespace uhd {
namespace {

std::optional<std::string> getenv_str(const std::string& name) {
    const char* raw = std::getenv(name.c_str());
    if (raw == nullptr) return std::nullopt;
    return std::string(raw);
}

} // namespace

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
    const auto raw = getenv_str(name);
    if (!raw || raw->empty()) return fallback;
    try {
        const std::int64_t value = std::stoll(*raw);
        UHD_REQUIRE(value >= 0, name + " must be non-negative");
        return value;
    } catch (const uhd::error&) {
        throw;
    } catch (const std::exception&) {
        return fallback;
    }
}

std::string env_string(const std::string& name, const std::string& fallback) {
    const auto raw = getenv_str(name);
    return raw ? *raw : fallback;
}

bool env_bool(const std::string& name, bool fallback) {
    const auto raw = getenv_str(name);
    if (!raw) return fallback;
    std::string value = *raw;
    std::transform(value.begin(), value.end(), value.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (value == "1" || value == "true" || value == "on" || value == "yes") return true;
    if (value == "0" || value == "false" || value == "off" || value == "no") return false;
    return fallback;
}

} // namespace uhd
