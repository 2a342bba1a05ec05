// Lock-discipline annotations, checked by the in-tree analyzer.
//
// These macros declare which mutex guards which field and which methods
// must not be entered while a given mutex is held. They expand to nothing
// at compile time on every toolchain — the checker is tools/asqp_lint
// (rules asqp-guard-violation / asqp-missing-guard), not the compiler —
// so the annotations cost nothing and work identically under GCC, Clang,
// and sanitizer builds. They deliberately mirror Clang thread-safety-
// analysis spelling (GUARDED_BY / EXCLUDES) so a future libclang-based
// checker could consume them unchanged.
//
// Usage:
//
//   class BatchScheduler {
//    private:
//     std::mutex mu_;
//     size_t running_ ASQP_GUARDED_BY(mu_);  // only touch under mu_
//    public:
//     bool Submit(Ticket t) ASQP_EXCLUDES(mu_);  // never call holding mu_
//   };
//
// asqp-lint enforces:
//   * every read/write of an ASQP_GUARDED_BY(mu) field happens inside a
//     lock_guard / unique_lock / scoped_lock / shared_lock scope on `mu`
//     (asqp-guard-violation);
//   * a field of an annotated class that is written under a lock but
//     carries no annotation is flagged, and a mutex member with no
//     declared protocol at all is flagged, so the annotation set cannot
//     silently rot (asqp-missing-guard);
//   * calling a same-class ASQP_EXCLUDES(mu) method while holding `mu`
//     is flagged as a self-deadlock (asqp-guard-violation).
//
// The mutex argument is matched by its final path component, so nested
// state can name its owner's lock: `size_t bytes ASQP_GUARDED_BY(mu);`
// inside AnswerCache::Shard matches `lock_guard lock(shard.mu)`.
#pragma once

#define ASQP_GUARDED_BY(mu)
#define ASQP_EXCLUDES(mu)
