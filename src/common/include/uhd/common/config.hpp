// Environment-variable configuration for bench harnesses.
//
// Bench binaries run argument-less (so `for b in build/bench/*; do $b; done`
// works); workload sizes can be scaled with UHD_* environment variables,
// e.g. UHD_TRAIN_N=60000 UHD_ITERS=100 ./bench_table4_mnist.
#ifndef UHD_COMMON_CONFIG_HPP
#define UHD_COMMON_CONFIG_HPP

#include <cstdint>
#include <string>

namespace uhd {

/// Integer environment override: returns `fallback` when `name` is unset or
/// unparseable; throws uhd::error when set to a negative value.
[[nodiscard]] std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// String environment override.
[[nodiscard]] std::string env_string(const std::string& name, const std::string& fallback);

/// Boolean environment override ("1"/"true"/"on" vs "0"/"false"/"off").
[[nodiscard]] bool env_bool(const std::string& name, bool fallback);

} // namespace uhd

#endif // UHD_COMMON_CONFIG_HPP
