#include "serve/text_memo.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <utility>

namespace asqp {
namespace serve {

namespace {

uint64_t HashText(const std::string& text) {
  return std::hash<std::string_view>{}(text);
}

}  // namespace

TextMemo::TextMemo(size_t byte_budget, size_t num_shards)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / std::max<size_t>(1, num_shards)),
      shards_(std::max<size_t>(1, num_shards)) {}

bool TextMemo::Lookup(const std::string& text, sql::QueryFingerprint* fp) {
  const uint64_t hash = HashText(text);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(hash);
  if (it == shard.index.end() || it->second->text != text) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  *fp = it->second->fingerprint;
  return true;
}

void TextMemo::Admit(const std::string& text, sql::QueryFingerprint fp) {
  const size_t bytes = sizeof(Entry) + text.size() + fp.canonical.size();
  if (bytes > shard_budget_) return;
  const uint64_t hash = HashText(text);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(hash);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{hash, text, std::move(fp), bytes});
  shard.index[hash] = shard.lru.begin();
  shard.bytes += bytes;
  ++shard.admissions;
  while (shard.bytes > shard_budget_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.hash);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void TextMemo::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

TextMemo::Stats TextMemo::stats() const {
  Stats out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.admissions += shard.admissions;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace serve
}  // namespace asqp
