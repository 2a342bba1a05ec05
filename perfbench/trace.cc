#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr int kThreadShift = 40;
constexpr uint64_t kLocalMask = (uint64_t{1} << kThreadShift) - 1;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanLog::Begin(const char* name, uint64_t parent, uint64_t request) {
  return Add(name, parent, request, NowNs(), 0);
}

int64_t SpanLog::End(uint64_t id) {
  Span& span = spans_[(id & kLocalMask) - 1];
  span.end_ns = NowNs();
  return span.duration_ns();
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, uint64_t request,
                      int64_t start_ns, int64_t end_ns) {
  const uint64_t id =
      (static_cast<uint64_t>(thread_) << kThreadShift) | (spans_.size() + 1);
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns, thread_});
  return id;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans, double unit_ns) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    out[s.name].push_back(static_cast<double>(s.duration_ns()) / unit_ns);
  }
  for (auto& [name, values] : out) std::sort(values.begin(), values.end());
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
