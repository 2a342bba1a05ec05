// Exact-text memo for the serving layer's SQL entry points. It maps a SQL
// text, byte for byte, to the sql::QueryFingerprint that the text's own
// parse, bind and canonicalization produced, so a repeated text reaches
// the answer cache without the SQL front end. A fingerprint depends only
// on the text and the database schema, so an entry never goes wrong; its
// cache entry may go (evicted, or from an older generation), and then the
// caller falls through to the full front end. ServeEngine decides what
// enters (see serve_engine.h); the memo only stores and bounds.
//
// Sharded by a hash of the text. Each shard is LRU under its share of a
// fixed byte budget and takes its own lock, like AnswerCache.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/canonicalize.h"
#include "util/annotations.h"

namespace asqp {
namespace serve {

class TextMemo {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admissions = 0;
    /// Entries dropped to stay under the byte budget (LRU order).
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  /// `byte_budget` caps the summed size of live entries (text, canonical
  /// text and bookkeeping); it is split evenly across `num_shards`
  /// independently locked shards.
  explicit TextMemo(size_t byte_budget, size_t num_shards = 8);

  TextMemo(const TextMemo&) = delete;
  TextMemo& operator=(const TextMemo&) = delete;

  /// Copy the fingerprint memoized for exactly `text` into `*fp` and
  /// return true, or return false when `text` is not memoized.
  bool Lookup(const std::string& text, sql::QueryFingerprint* fp);

  /// Memoize `text` -> `fp`, replacing an entry for the same hash, then
  /// evict LRU entries until the shard is back under budget. An entry
  /// larger than a whole shard's budget is not kept.
  void Admit(const std::string& text, sql::QueryFingerprint fp);

  void Clear();

  /// Aggregated over all shards.
  Stats stats() const;

  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    std::string text;
    sql::QueryFingerprint fingerprint;
    size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used. One entry per hash (checked against
    /// the text).
    std::list<Entry> lru ASQP_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index
        ASQP_GUARDED_BY(mu);
    size_t bytes ASQP_GUARDED_BY(mu) = 0;
    uint64_t hits ASQP_GUARDED_BY(mu) = 0;
    uint64_t misses ASQP_GUARDED_BY(mu) = 0;
    uint64_t admissions ASQP_GUARDED_BY(mu) = 0;
    uint64_t evictions ASQP_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t hash) { return shards_[hash % shards_.size()]; }

  size_t byte_budget_;
  size_t shard_budget_;
  mutable std::vector<Shard> shards_;
};

}  // namespace serve
}  // namespace asqp
