#include "serve/answer_cache.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace asqp {
namespace serve {

namespace {

/// A heap block's header and rounding, roughly: glibc keeps 8 bytes per
/// chunk and rounds chunks to 16.
constexpr size_t kAllocationHeader = 2 * sizeof(void*);

/// What `s` holds outside its own object: nothing while it fits the
/// small-string buffer, else its heap block (capacity, terminator, header).
size_t HeapStringBytes(const std::string& s) {
  static const size_t kInlineCapacity = std::string().capacity();
  return s.capacity() > kInlineCapacity
             ? s.capacity() + 1 + kAllocationHeader
             : 0;
}

}  // namespace

size_t EstimateAnswerBytes(const core::AnswerResult& result) {
  using Entry = AnswerCache::Entry;
  using Index = std::unordered_map<uint64_t, std::list<Entry>::iterator>;
  // The LRU list node (the Entry between two links), the index node (a
  // link and the key-iterator pair) and its bucket slot, the control block
  // make_shared puts in front of the answer, and the headers of those three
  // blocks and of the key's buffer.
  constexpr size_t kEntryOverhead =
      (sizeof(Entry) + 2 * sizeof(void*)) +
      (sizeof(void*) + sizeof(Index::value_type)) + sizeof(void*) +
      2 * sizeof(void*) + 4 * kAllocationHeader;
  size_t bytes = kEntryOverhead + sizeof(core::AnswerResult);
  bytes += HeapStringBytes(result.fallback_reason);
  const std::vector<std::string>& names = result.result.column_names();
  if (names.capacity() > 0) {
    bytes += kAllocationHeader + names.capacity() * sizeof(std::string);
  }
  for (const std::string& name : names) bytes += HeapStringBytes(name);
  // Capacities, not sizes: an entry keeps each allocation whole.
  const exec::ResultSet::Rows& rows = result.result.rows();
  if (!rows.empty()) {
    // The shared rows block: the rows vector, its control block, its slots.
    bytes += sizeof(exec::ResultSet::Rows) + 2 * sizeof(void*) +
             rows.capacity() * sizeof(exec::ResultSet::Row);
  }
  for (const auto& row : rows) {
    // Each row's Value array is a heap block of its own.
    if (row.capacity() > 0) {
      bytes += kAllocationHeader + row.capacity() * sizeof(storage::Value);
    }
    for (const storage::Value& v : row) {
      if (v.type() == storage::ValueType::kString) {
        bytes += HeapStringBytes(v.AsString());
      }
    }
  }
  return bytes;
}

AnswerCache::AnswerCache(size_t byte_budget, size_t num_shards)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / std::max<size_t>(1, num_shards)),
      shards_(std::max<size_t>(1, num_shards)) {}

std::shared_ptr<const core::AnswerResult> AnswerCache::Lookup(
    const sql::QueryFingerprint& fp, uint64_t generation) {
  Shard& shard = ShardFor(fp.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fp.hash);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  Entry& entry = *it->second;
  if (entry.generation != generation) {
    // FineTune swapped the approximation set since this was cached.
    shard.bytes -= entry.bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.invalidations;
    ++shard.misses;
    return nullptr;
  }
  if (entry.canonical != fp.canonical) {
    ++shard.hash_collisions;
    ++shard.misses;
    return nullptr;
  }
  // Move to the front of the LRU list (most recently used).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return entry.answer;
}

void AnswerCache::Insert(const sql::QueryFingerprint& fp, uint64_t generation,
                         core::AnswerResult result) {
  // The entry keeps its own copy of the canonical key, often longer than
  // the answer itself.
  const size_t bytes = fp.canonical.size() + EstimateAnswerBytes(result);
  if (bytes > shard_budget_) return;  // would evict the whole shard
  Shard& shard = ShardFor(fp.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fp.hash);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  Entry entry;
  entry.hash = fp.hash;
  entry.canonical = fp.canonical;
  entry.generation = generation;
  entry.bytes = bytes;
  entry.answer =
      std::make_shared<const core::AnswerResult>(std::move(result));
  shard.lru.push_front(std::move(entry));
  shard.index[fp.hash] = shard.lru.begin();
  shard.bytes += bytes;
  ++shard.insertions;
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.hash);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  // A single over-budget entry cannot remain (bytes <= shard_budget_ was
  // checked above), so the loop always terminates under budget.
}

void AnswerCache::InvalidateOlderThan(uint64_t generation) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->generation < generation) {
        shard.bytes -= it->bytes;
        shard.index.erase(it->hash);
        it = shard.lru.erase(it);
        ++shard.invalidations;
      } else {
        ++it;
      }
    }
  }
}

void AnswerCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.insertions += shard.insertions;
    out.evictions += shard.evictions;
    out.invalidations += shard.invalidations;
    out.hash_collisions += shard.hash_collisions;
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace serve
}  // namespace asqp
