#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace asqp {
namespace util {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

uint64_t Fnv1a(std::string_view s) { return Fnv1a(s, 0xcbf29ce484222325ULL); }

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace util
}  // namespace asqp
