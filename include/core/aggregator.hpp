// core/aggregator.hpp — the SEC batching engine (paper §3).
//
// An AggregatorSet partitions threads across K aggregators in contiguous
// blocks of thread ids. A thread publishes its operation in its own
// cache-line slot, then races for its aggregator's freezer lock. The winner
// — the freezer — optionally backs off for the freezer-backoff window so the
// batch can grow (§3.1: "a short backoff before freezing B to increase the
// elimination degree"), then freezes the batch:
//   1. elimination — concurrent push/pop pairs exchange values directly,
//      two slot writes per pair, never touching the shared structure;
//   2. combining  — leftover same-direction operations are applied to the
//      backing structure in ONE batched call (a single CAS on a Treiber
//      spine for an arbitrarily long run of pushes or pops).
// Per-batch degree counters back the paper's Table 1. Every knob (count,
// unit, legal range, paper section) is documented on sec::Config
// (core/config.hpp); this engine consumes it verbatim — K is
// Config::num_aggregators in [1, kMaxAggregators], the backoff window is
// Config::freezer_backoff_ns in nanoseconds with 0 meaning "freeze
// immediately".
//
// K and the backoff are fixed for the structure's lifetime, so every thread
// has one home aggregator (DESIGN.md §5 records why there is no runtime
// tuner).
//
// SecStack enters through execute_direct_first(): one attempt on the spine,
// and a publication here only when that attempt lost a race or the thread
// is still in the skip window a recent loss opened. The batching protocol
// therefore runs for contended ops only; below that contention a batch
// would average little more than one op and cost several cross-core round
// trips (DESIGN.md §3).
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/common.hpp"
#include "core/config.hpp"

namespace sec::detail {

template <class V>
class AggregatorSet {
public:
    static constexpr std::uint32_t kOpPush = 1;
    static constexpr std::uint32_t kOpPop = 2;

    // `eliminate` is the owning container's: when true (the paper's stack
    // semantics) the freezer matches concurrent push/pop pairs and
    // exchanges their values directly, so eliminated pairs never touch the
    // central structure. Elimination is only legal for the LIFO shape:
    // handing a dequeuer a *concurrent* enqueue's value would skip every
    // older element in a FIFO, so SecQueue passes false — batching and
    // single-CAS combining are shape-agnostic, elimination is not
    // (DESIGN.md §12).
    AggregatorSet(const Config& cfg, bool eliminate)
        : cfg_(cfg), eliminate_(eliminate) {
        cfg_.validate();
        num_aggs_ = std::min(cfg_.num_aggregators, cfg_.max_threads);
        slots_ = std::make_unique<Slot[]>(cfg_.max_threads);
        aggs_ = std::make_unique<Agg[]>(num_aggs_);
        for (std::size_t t = 0; t < cfg_.max_threads; ++t) {
            aggs_[agg_of(t)].tids.push_back(static_cast<std::uint32_t>(t));
        }
        for (std::size_t a = 0; a < num_aggs_; ++a) {
            Agg& agg = aggs_[a];
            const std::size_t cap = agg.tids.size();
            agg.scratch_push = std::make_unique<std::uint32_t[]>(cap);
            agg.scratch_pop = std::make_unique<std::uint32_t[]>(cap);
            agg.scratch_vals = std::make_unique<V[]>(cap);
        }
    }

    std::size_t num_aggregators() const noexcept { return num_aggs_; }
    const Config& config() const noexcept { return cfg_; }

    // True when `tid` has no publication slot (more live threads than
    // Config::max_threads); callers must take their direct fallback path.
    bool is_overflow(std::size_t tid) const noexcept {
        return tid >= cfg_.max_threads;
    }

    // Run one operation of the calling thread `id` (its detail::tid(),
    // below Config::max_threads) through the batching protocol.
    // `apply_pushes(vals, n)` must push n values onto the backing
    // structure; `apply_pops(out, n)` must pop up to n values,
    // returning how many it got. Returns the popped value for kOpPop
    // (nullopt: empty), nullopt for push.
    template <class ApplyPushes, class ApplyPops>
    std::optional<V> execute(std::size_t id, std::uint32_t op, const V& in,
                             ApplyPushes&& apply_pushes,
                             ApplyPops&& apply_pops) {
        Slot& slot = slots_[id];
        Agg& agg = aggs_[agg_of(id)];  // the thread's home, for its lifetime
        slot.in = in;
        slot.state.store(op, std::memory_order_release);
        Backoff backoff;
        for (;;) {
            std::uint32_t st = slot.state.load(std::memory_order_acquire);
            if (st >= kDonePushed) return consume(slot, st);
            // Test, then test-and-set: a waiter that only reads leaves the
            // lock line shared while the freezer works.
            if (agg.lock.load(std::memory_order_relaxed) == 0 &&
                agg.lock.exchange(1, std::memory_order_acquire) == 0) {
                // We are the freezer. A previous freezer may have served us
                // between our load and the lock; only combine while our own
                // op is still open.
                if (slot.state.load(std::memory_order_relaxed) <= kOpPop) {
                    combine(agg, apply_pushes, apply_pops);
                }
                agg.lock.store(0, std::memory_order_release);
                st = slot.state.load(std::memory_order_acquire);
                if (st >= kDonePushed) return consume(slot, st);
            }
            backoff.pause();
        }
    }

    // The contention-sensitive entry (DESIGN.md §3). Unless the calling
    // thread `id` sits in a post-failure skip window, `try_direct(result)`
    // first makes ONE attempt at the op on the backing structure: it
    // returns false when it lost a race (nothing was applied), and true when
    // the op completed, with `result` set for a pop that got a value. A
    // completed attempt returns at once. A lost one raises the thread's
    // failure level f (at most kMaxFailLevel) and sends this op and the
    // thread's next 2^f - 1 ops through execute(). Every second direct
    // success lowers f by one, so a thread stays batched while more than
    // ~1/3 of its direct attempts fail.
    template <class TryDirect, class ApplyPushes, class ApplyPops>
    std::optional<V> execute_direct_first(std::size_t id, std::uint32_t op,
                                          const V& in, TryDirect&& try_direct,
                                          ApplyPushes&& apply_pushes,
                                          ApplyPops&& apply_pops) {
        Slot& slot = slots_[id];
        if (slot.skip > 0) {
            --slot.skip;
        } else {
            std::optional<V> result;
            if (try_direct(result)) {
                if (slot.fail_level > 0 && ++slot.wins == 2) {
                    slot.wins = 0;
                    --slot.fail_level;
                }
                if (cfg_.collect_stats) bump(slot.direct_ops, 1);
                return result;
            }
            if (slot.fail_level < kMaxFailLevel) ++slot.fail_level;
            slot.skip = (1u << slot.fail_level) - 1;
        }
        return execute(id, op, in, apply_pushes, apply_pops);
    }

    // One consistent snapshot: the counters are written with plain
    // load+store under each aggregator's freezer lock (see combine()), so a
    // lock-free reader could both under-count a mid-batch bump and tear
    // ACROSS counters — batched already bumped, eliminated not yet — and
    // Table 1 divides one counter by another. Taking the lock per
    // aggregator makes the four counters mutually consistent and flushes
    // every completed batch into the read (lock hand-off: the freezer's
    // release store pairs with our acquire exchange). Held only for four
    // relaxed loads, so a concurrent freezer waits nanoseconds, and stats()
    // never holds two locks at once.
    // Direct completions are owner-counted in the slots, so they are read
    // without a lock: a snapshot may trail a running thread by a few ops.
    StatsSnapshot stats() const {
        StatsSnapshot s;
        const std::size_t live = std::min(detail::tid_hwm(), cfg_.max_threads);
        for (std::size_t t = 0; t < live; ++t) {
            s.direct_ops += slots_[t].direct_ops.load(std::memory_order_relaxed);
        }
        for (std::size_t a = 0; a < num_aggs_; ++a) {
            Agg& agg = aggs_[a];
            Backoff backoff;
            while (agg.lock.load(std::memory_order_relaxed) != 0 ||
                   agg.lock.exchange(1, std::memory_order_acquire) != 0) {
                backoff.pause();
            }
            s.batches += agg.batches.load(std::memory_order_relaxed);
            s.batched_ops += agg.batched.load(std::memory_order_relaxed);
            s.eliminated_ops += agg.eliminated.load(std::memory_order_relaxed);
            s.combined_ops += agg.combined.load(std::memory_order_relaxed);
            agg.lock.store(0, std::memory_order_release);
        }
        return s;
    }

private:
    // Slot states: 0 idle, kOpPush/kOpPop pending, >= kDonePushed terminal.
    static constexpr std::uint32_t kIdle = 0;
    static constexpr std::uint32_t kDonePushed = 3;
    static constexpr std::uint32_t kDoneValue = 4;
    static constexpr std::uint32_t kDoneEmpty = 5;

    // Highest failure level of the direct entry: after a lost race a thread
    // batches at most 2^6 = 64 ops in a row before it tries again.
    static constexpr std::uint8_t kMaxFailLevel = 6;

    struct alignas(kCacheLineSize) Slot {
        std::atomic<std::uint32_t> state{kIdle};
        V in{};   // owner-written before the pending release store
        V out{};  // freezer-written before the kDoneValue release store
        // Direct-entry state (execute_direct_first), owner-only: ops left
        // in the skip window, the failure level f, and direct successes
        // since f last fell.
        std::uint8_t skip = 0;
        std::uint8_t fail_level = 0;
        std::uint8_t wins = 0;
        // Ops that completed on the direct path (Config::collect_stats);
        // single writer, the owner.
        std::atomic<std::uint64_t> direct_ops{0};
    };

    struct alignas(kCacheLineSize) Agg {
        // Alone on its line: waiters spin on it, while the freezer reads
        // the members and scratch pointers below from a line they never
        // touch.
        std::atomic<std::uint32_t> lock{0};
        // Member thread ids, ascending.
        alignas(kCacheLineSize) std::vector<std::uint32_t> tids;
        // Scratch for the freezer, one entry per member; guarded by `lock`.
        std::unique_ptr<std::uint32_t[]> scratch_push;
        std::unique_ptr<std::uint32_t[]> scratch_pop;
        std::unique_ptr<V[]> scratch_vals;
        // Degree counters (Table 1); freezer-only writers.
        std::atomic<std::uint64_t> batches{0};
        std::atomic<std::uint64_t> batched{0};
        std::atomic<std::uint64_t> eliminated{0};
        std::atomic<std::uint64_t> combined{0};
    };

    // Thread → home aggregator: contiguous blocks of max_threads / K ids.
    std::size_t agg_of(std::size_t tid) const noexcept {
        return tid * num_aggs_ / cfg_.max_threads;
    }

    // Single-writer counter increment: plain load+store, no atomic RMW.
    static void bump(std::atomic<std::uint64_t>& c, std::uint64_t x) noexcept {
        c.store(c.load(std::memory_order_relaxed) + x,
                std::memory_order_relaxed);
    }

    std::optional<V> consume(Slot& slot, std::uint32_t st) {
        std::optional<V> r;
        if (st == kDoneValue) r = slot.out;
        slot.state.store(kIdle, std::memory_order_relaxed);
        return r;
    }

    template <class ApplyPushes, class ApplyPops>
    void combine(Agg& agg, ApplyPushes&& apply_pushes,
                 ApplyPops&& apply_pops) {
        const std::vector<std::uint32_t>& members = agg.tids;
        std::size_t np = 0, nq = 0;
        // Member lists are ascending, so every live slot sits in the prefix
        // below the tid high-water mark — stop there instead of walking all
        // max_threads entries. A stale (smaller) view can only miss a
        // brand-new thread, which re-drives its own aggregator until served.
        const std::size_t hwm = detail::tid_hwm();
        auto scan = [&] {
            // Rebuilding from scratch on the rescan is safe: only a freezer
            // holding THIS aggregator's lock may serve its members, so
            // pending slots stay pending across the backoff.
            np = nq = 0;
            const std::size_t m = members.size();
            for (std::size_t j = 0; j < m; ++j) {
                const std::uint32_t t = members[j];
                if (t >= hwm) break;
                // Each Slot is its own cache line; touch the next member's
                // line while this one's acquire load resolves.
                if (j + 1 < m && members[j + 1] < hwm) {
                    prefetch(&slots_[members[j + 1]]);
                }
                Slot& s = slots_[t];
                const std::uint32_t st =
                    s.state.load(std::memory_order_acquire);
                if (st != kOpPush && st != kOpPop) continue;
                if (st == kOpPush) {
                    agg.scratch_push[np++] = t;
                } else {
                    agg.scratch_pop[nq++] = t;
                }
            }
        };
        scan();
        if (cfg_.freezer_backoff_ns > 0 && np + nq > 1) {
            // Freezer backoff: let the batch fill before freezing it.
            detail::spin_for_ns(cfg_.freezer_backoff_ns);
            scan();
        }
        const std::size_t batch = np + nq;
        if (batch == 0) return;

        // Freeze: the snapshot is the batch. Eliminate push/pop pairs —
        // unless the owning container is FIFO-shaped, where pairing a pop
        // with a concurrent push is not linearizable (see the constructor).
        const std::size_t pairs =
            eliminate_ ? std::min(np, nq) : std::size_t{0};
        for (std::size_t i = 0; i < pairs; ++i) {
            Slot& ps = slots_[agg.scratch_push[i]];
            Slot& qs = slots_[agg.scratch_pop[i]];
            qs.out = ps.in;
            qs.state.store(kDoneValue, std::memory_order_release);
            ps.state.store(kDonePushed, std::memory_order_release);
        }

        // Combine the leftover run (all pushes or all pops) in one shot.
        if (np > pairs) {
            const std::size_t n = np - pairs;
            for (std::size_t i = 0; i < n; ++i) {
                agg.scratch_vals[i] = slots_[agg.scratch_push[pairs + i]].in;
            }
            apply_pushes(agg.scratch_vals.get(), n);
            for (std::size_t i = 0; i < n; ++i) {
                slots_[agg.scratch_push[pairs + i]].state.store(
                    kDonePushed, std::memory_order_release);
            }
        } else if (nq > pairs) {
            const std::size_t n = nq - pairs;
            const std::size_t got = apply_pops(agg.scratch_vals.get(), n);
            for (std::size_t i = 0; i < got; ++i) {
                Slot& qs = slots_[agg.scratch_pop[pairs + i]];
                qs.out = agg.scratch_vals[i];
                qs.state.store(kDoneValue, std::memory_order_release);
            }
            for (std::size_t i = got; i < n; ++i) {
                slots_[agg.scratch_pop[pairs + i]].state.store(
                    kDoneEmpty, std::memory_order_release);
            }
        }

        if (cfg_.collect_stats) {
            // Plain load+store, not fetch_add: combine() runs under
            // agg.lock, so each counter has one writer at a time (the lock
            // hand-off orders successive freezers) and an atomic RMW per
            // counter per batch would be pure waste — 4 RMWs dominate the
            // per-op cost when batches are small. stats() takes the same
            // lock, so readers see whole batches only, never a mid-bump
            // tear.
            bump(agg.batches, 1);
            bump(agg.batched, batch);
            bump(agg.eliminated, 2 * pairs);
            bump(agg.combined, batch - 2 * pairs);
        }
    }

    Config cfg_;
    bool eliminate_;
    std::size_t num_aggs_ = 1;
    std::unique_ptr<Slot[]> slots_;
    std::unique_ptr<Agg[]> aggs_;
};

}  // namespace sec::detail
