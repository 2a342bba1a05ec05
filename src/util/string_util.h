// Small string helpers shared by the SQL lexer, embedders, and reporting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace asqp {
namespace util {

/// Lower-case an ASCII string.
std::string ToLower(std::string_view s);

/// Split on a delimiter character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// Join strings with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Trim ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// FNV-1a 64-bit hash, the stable hash used by the feature-hashing
/// embedders (std::hash is not stable across implementations).
uint64_t Fnv1a(std::string_view s);

/// FNV-1a continued over `s` from the state `h`, so that
/// Fnv1a(b, Fnv1a(a)) == Fnv1a(a + b) without building a + b.
uint64_t Fnv1a(std::string_view s, uint64_t h);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace util
}  // namespace asqp
