// Sharded, concurrent, fingerprint-keyed answer cache for the serving
// layer. Entries are complete AnswerResults keyed by sql::QueryFingerprint
// (64-bit hash + collision-checked canonical text) and stamped with the
// model's approximation-set generation: a FineTune bumps the generation,
// which lazily invalidates every older entry on its next lookup (plus an
// eager sweep via InvalidateOlderThan). Eviction is LRU under a byte
// budget, maintained independently per shard so concurrent sessions on
// different shards never contend on one lock.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "sql/canonicalize.h"
#include "util/annotations.h"

namespace asqp {
namespace serve {

/// Rough in-memory footprint of a cached answer (values + strings +
/// column names + the shared rows block), counting each vector by its
/// capacity, spare slots included, and each heap block it holds with an
/// allocation header: the rows block, each row's Value array, and each
/// string too long for its small-string buffer (a short string costs
/// nothing beyond the object it lives in). Plus the cache's bookkeeping
/// for its entry: the LRU list node, the index node and bucket slot, the
/// answer's shared_ptr control block, and an allocation header for each
/// of those and for the key. With its canonical key, what the cache's
/// byte budget charges an entry.
size_t EstimateAnswerBytes(const core::AnswerResult& result);

class AnswerCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    /// Entries dropped to stay under the byte budget (LRU order).
    uint64_t evictions = 0;
    /// Entries dropped because their generation went stale.
    uint64_t invalidations = 0;
    /// Lookups that matched a hash but not the canonical text.
    uint64_t hash_collisions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  /// `byte_budget` caps the summed EstimateAnswerBytes plus canonical key
  /// bytes of live entries (0 disables caching entirely); the budget is
  /// split evenly across `num_shards` independently locked shards.
  explicit AnswerCache(size_t byte_budget, size_t num_shards = 8);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Return the cached answer for `fp` at `generation`, or nullptr. An
  /// entry with a stale generation is erased (counted as invalidation +
  /// miss); a hash collision with different canonical text is a miss.
  /// The returned pointer is immutable and safe to read concurrently
  /// with eviction (shared ownership).
  std::shared_ptr<const core::AnswerResult> Lookup(
      const sql::QueryFingerprint& fp, uint64_t generation);

  /// Insert (or replace) the answer for `fp` at `generation`, then evict
  /// LRU entries until the shard is back under budget. Entries larger
  /// than a whole shard's budget are not cached. The entry shares
  /// `result`'s rows with every other copy of it.
  void Insert(const sql::QueryFingerprint& fp, uint64_t generation,
              core::AnswerResult result);

  /// Eagerly drop every entry older than `generation` (FineTune sweep —
  /// lazy lookup invalidation would keep stale bytes resident).
  void InvalidateOlderThan(uint64_t generation);

  void Clear();

  /// Aggregated over all shards (each shard's counters are internally
  /// consistent; the aggregate is a near-instantaneous snapshot).
  Stats stats() const;

  size_t byte_budget() const { return byte_budget_; }

 private:
  friend size_t EstimateAnswerBytes(const core::AnswerResult& result);

  struct Entry {
    uint64_t hash = 0;
    std::string canonical;
    uint64_t generation = 0;
    size_t bytes = 0;
    std::shared_ptr<const core::AnswerResult> answer;
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used. One entry per hash (collision-checked
    /// against the canonical text).
    std::list<Entry> lru ASQP_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index
        ASQP_GUARDED_BY(mu);
    size_t bytes ASQP_GUARDED_BY(mu) = 0;
    uint64_t hits ASQP_GUARDED_BY(mu) = 0;
    uint64_t misses ASQP_GUARDED_BY(mu) = 0;
    uint64_t insertions ASQP_GUARDED_BY(mu) = 0;
    uint64_t evictions ASQP_GUARDED_BY(mu) = 0;
    uint64_t invalidations ASQP_GUARDED_BY(mu) = 0;
    uint64_t hash_collisions ASQP_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t hash) {
    return shards_[hash % shards_.size()];
  }

  size_t byte_budget_;
  size_t shard_budget_;
  mutable std::vector<Shard> shards_;
};

}  // namespace serve
}  // namespace asqp
