// Database value type.
//
// Stored objects hold a number: an integer or a real. That is enough for the
// stored-procedure workloads of the paper (account balances, stock counters,
// order records), and it keeps a value trivially copyable in two words, so
// read logs, write sets, stored versions and commit records copy as plain
// bytes. A workload that needs text should add it as a trivially copyable
// handle, not as an owning alternative.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>

namespace otpdb {

using Value = std::variant<std::int64_t, double>;

static_assert(std::is_trivially_copyable_v<Value>, "a Value copies as plain bytes");
static_assert(sizeof(Value) == 16, "a Value is a number and its tag");

/// Integer view of a value (doubles truncate).
inline std::int64_t as_int(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  return static_cast<std::int64_t>(std::get<double>(v));
}

inline double as_double(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  return static_cast<double>(std::get<std::int64_t>(v));
}

inline std::string to_display_string(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  return std::to_string(std::get<double>(v));
}

}  // namespace otpdb
