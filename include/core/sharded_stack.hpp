// core/sharded_stack.hpp — the sec::shard façade: K independent inner
// stacks behind one ConcurrentContainer surface (DESIGN.md §8).
//
// The paper's SEC scales until its aggregator/elimination layer saturates
// the one cache-line-contended anchor every thread shares (the spine top
// plus K freezer locks). ShardedStack adds the next scaling axis ABOVE the
// stack concept: it partitions load across `num_shards` independent inner
// stacks — any ConcurrentContainer, SEC in the registry's SEC@shardK variants —
// with
//
//   affinity   every thread owns a home shard, derived from its small
//              thread id (detail::tid()), pinned or not: ids are dense and
//              recycled, so the identity hash (id mod K) is both perfectly
//              balanced and stable for the thread's lifetime; a
//              multiplicative mix would only decorrelate adversarial id
//              patterns the thread registry never produces, at the price
//              of real imbalance on small thread counts. Placement plays no
//              part: a home per L3 domain would put every thread of a host
//              with fewer L3 domains than shards on the same few shards.
//   stealing   pushes always hit the home shard. A pop that finds its home
//              shard empty probes every other shard round-robin from
//              home + 1 before reporting empty — so a consumer-heavy thread
//              drains its neighbours instead of spinning on EMPTY while
//              values sit one shard over, and a quiescent empty verdict is
//              exact: no concurrent pushers and a full sweep of empty
//              probes means every shard was empty.
//   isolation  each shard is cache-line padded and built by a caller
//              factory, so per-shard state — including each inner stack's
//              PRIVATE reclamation domain — never false-shares and never
//              funnels through a shared limbo list; drain and limbo
//              accounting stay per-shard by construction.
//
// What is given up: cross-shard LIFO. Each shard is individually
// linearizable and LIFO (a thread that is never stolen from sees exact
// stack order), but two values pushed by threads of different shards have
// no pop-order relation — the same relaxation every sharded/distributed
// queue makes. `secbench sharding` measures what that buys and reports the
// per-shard load imbalance and steal rate next to aggregate throughput.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/common.hpp"
#include "core/config.hpp"
#include "core/stack_concept.hpp"

namespace sec::shard {

// Shard-count ceiling: per-thread steal/ops counters are statically sized
// by this, and the registry's widest variant (SEC@shard8) sits at the top
// of it. Doubling it is a one-line change.
inline constexpr std::size_t kMaxShards = 8;

struct ShardConfig {
    // Number of independent inner stacks.
    //   unit: count · legal range: [1, kMaxShards] (validate() throws
    //   outside it). 1 degenerates to a pass-through façade.
    std::size_t num_shards = 4;
    // Bound on concurrently-live threads, sizing the per-thread counter
    // slots. Threads with ids at or past the bound still operate (affinity
    // needs no slot) but are excluded from the stats.
    //   unit: threads · legal range: [1, kMaxThreads]
    std::size_t max_threads = kMaxThreads;

    void validate() const {
        if (num_shards < 1 || num_shards > kMaxShards) {
            throw std::invalid_argument(
                "sec::shard::ShardConfig: num_shards must be in [1, "
                "kMaxShards]");
        }
        if (max_threads < 1 || max_threads > kMaxThreads) {
            throw std::invalid_argument(
                "sec::shard::ShardConfig: max_threads must be in [1, "
                "kMaxThreads]");
        }
    }
};

// Aggregated per-shard load counters (`secbench sharding` reports these
// next to the Mops columns). All counts are cumulative over the structure's
// lifetime, summed over the per-thread slots at snapshot time.
struct ShardStats {
    std::vector<std::uint64_t> shard_ops;  // pushes + successful pops landed per shard
    std::uint64_t pushes = 0;          // total pushes
    std::uint64_t pops = 0;            // total successful pops
    std::uint64_t steals = 0;          // pops served by a foreign shard
    std::uint64_t steal_probes = 0;    // foreign-shard probe attempts
    std::uint64_t empty_pops = 0;      // pops empty after the probe sweep

    // Load imbalance: max over mean of shard_ops — 1.0 is perfectly
    // balanced, num_shards is everything-on-one-shard. 1.0 when idle.
    double imbalance() const noexcept;
    // Share of successful pops served by stealing, in percent.
    double steal_pct() const noexcept;
};

template <ConcurrentContainer Inner>
class ShardedStack {
public:
    using value_type = typename Inner::value_type;
    using inner_type = Inner;
    // The façade relaxes cross-shard order either way; per-shard order is
    // whatever the inner containers guarantee, so the shape is theirs.
    static constexpr ContainerShape kShape = Inner::kShape;

    // `make_inner(shard)` builds shard number `shard`'s inner stack. Each
    // call should produce a fully independent structure (own spine, own
    // reclamation domain) — sharing a domain across shards would re-create
    // the single limbo funnel sharding exists to remove.
    template <class Factory>
    ShardedStack(const ShardConfig& cfg, Factory&& make_inner) : cfg_(cfg) {
        cfg_.validate();
        shards_ = std::make_unique<Shard[]>(cfg_.num_shards);
        for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
            shards_[s].inner = make_inner(s);
            if (shards_[s].inner == nullptr) {
                throw std::invalid_argument(
                    "sec::shard::ShardedStack: factory returned null");
            }
        }
        counters_ = std::make_unique<Counters[]>(cfg_.max_threads);
    }

    ShardedStack(const ShardedStack&) = delete;
    ShardedStack& operator=(const ShardedStack&) = delete;

    std::size_t num_shards() const noexcept { return cfg_.num_shards; }
    const ShardConfig& config() const noexcept { return cfg_; }
    Inner& shard(std::size_t s) noexcept { return *shards_[s].inner; }
    const Inner& shard(std::size_t s) const noexcept {
        return *shards_[s].inner;
    }

    // Home shard of the calling thread — fixed for the thread's lifetime,
    // because its tid is; see `affinity` in the header comment.
    std::size_t home_shard() const noexcept {
        return detail::tid() % cfg_.num_shards;
    }

    bool push(const value_type& v) {
        const std::size_t id = detail::tid();
        const std::size_t home = home_shard();
        const bool ok = shards_[home].inner->push(v);
        if (ok && id < cfg_.max_threads) {
            bump(counters_[id].push_by_shard[home]);
        }
        return ok;
    }

    std::optional<value_type> pop() {
        const std::size_t id = detail::tid();
        const std::size_t home = home_shard();
        Counters* c = id < cfg_.max_threads ? &counters_[id] : nullptr;
        // The sweep exists for the imbalanced minority of pops; the home
        // shard serving is the design's steady state (affinity).
        if (auto v = shards_[home].inner->pop(); SEC_LIKELY(v.has_value())) {
            if (SEC_LIKELY(c != nullptr)) bump(c->pop_by_shard[home]);
            return v;
        }
        // Home is empty: round-robin steal sweep over the others. Wrap by
        // increment, not modulo — a div per probe is pure overhead on a
        // path that already eats a cross-shard cache miss — and lean on the
        // next victim's top-of-spine line while probing this one.
        std::size_t s = home;
        for (std::size_t i = 1; i < cfg_.num_shards; ++i) {
            if (++s == cfg_.num_shards) s = 0;
            if (i + 1 < cfg_.num_shards) {
                const std::size_t peek_next =
                    s + 1 == cfg_.num_shards ? 0 : s + 1;
                prefetch(shards_[peek_next].inner.get());
            }
            if (c != nullptr) bump(c->probes);
            if (auto v = shards_[s].inner->pop()) {
                if (c != nullptr) {
                    bump(c->pop_by_shard[s]);
                    bump(c->steals);
                }
                return v;
            }
        }
        if (c != nullptr) bump(c->empties);
        return std::nullopt;
    }

    std::optional<value_type> peek() const {
        const std::size_t home = home_shard();
        if (auto v = shards_[home].inner->peek()) return v;
        std::size_t s = home;
        for (std::size_t i = 1; i < cfg_.num_shards; ++i) {
            if (++s == cfg_.num_shards) s = 0;
            if (auto v = shards_[s].inner->peek()) return v;
        }
        return std::nullopt;
    }

    // Reclamation hooks (workload/runner.hpp). A stealing thread may have
    // touched ANY shard's domain, so both forward to every shard.
    void quiesce() {
        if constexpr (requires(Inner& s) { s.quiesce(); }) {
            for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
                shards_[s].inner->quiesce();
            }
        }
    }
    void reclaim_offline() {
        if constexpr (requires(Inner& s) { s.reclaim_offline(); }) {
            for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
                shards_[s].inner->reclaim_offline();
            }
        }
    }

    // Degree counters summed across shards, when the inner type keeps them
    // (SEC with Config::collect_stats).
    StatsSnapshot stats() const
        requires requires(const Inner& s) {
            { s.stats() } -> std::same_as<StatsSnapshot>;
        }
    {
        StatsSnapshot total;
        for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
            const StatsSnapshot one = shards_[s].inner->stats();
            total.batches += one.batches;
            total.batched_ops += one.batched_ops;
            total.eliminated_ops += one.eliminated_ops;
            total.combined_ops += one.combined_ops;
            total.direct_ops += one.direct_ops;
        }
        return total;
    }

    // Per-shard load distribution, summed over the per-thread slots.
    // Relaxed reads: concurrent callers see a momentarily stale but untorn
    // count; the scenario reads after the workers joined.
    ShardStats shard_stats() const {
        ShardStats out;
        out.shard_ops.assign(cfg_.num_shards, 0);
        const std::size_t hwm =
            std::min(detail::tid_hwm(), cfg_.max_threads);
        for (std::size_t t = 0; t < hwm; ++t) {
            const Counters& c = counters_[t];
            for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
                const std::uint64_t pu =
                    c.push_by_shard[s].load(std::memory_order_relaxed);
                const std::uint64_t po =
                    c.pop_by_shard[s].load(std::memory_order_relaxed);
                out.shard_ops[s] += pu + po;
                out.pushes += pu;
                out.pops += po;
            }
            out.steals += c.steals.load(std::memory_order_relaxed);
            out.steal_probes += c.probes.load(std::memory_order_relaxed);
            out.empty_pops += c.empties.load(std::memory_order_relaxed);
        }
        return out;
    }

private:
    struct alignas(kCacheLineSize) Shard {
        std::unique_ptr<Inner> inner;
    };

    // Owner-written load counters, one cache-aligned slot per thread id.
    // Plain load+store on relaxed atomics: a slot has exactly one live
    // writer (ids are recycled only after the owning thread exits), and
    // readers (shard_stats) tolerate staleness — the same single-writer
    // idiom as the aggregator degree counters.
    struct alignas(kCacheLineSize) Counters {
        std::atomic<std::uint64_t> push_by_shard[kMaxShards]{};
        std::atomic<std::uint64_t> pop_by_shard[kMaxShards]{};
        std::atomic<std::uint64_t> steals{0};
        std::atomic<std::uint64_t> probes{0};
        std::atomic<std::uint64_t> empties{0};
    };

    static void bump(std::atomic<std::uint64_t>& c) noexcept {
        c.store(c.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    ShardConfig cfg_;
    std::unique_ptr<Shard[]> shards_;
    std::unique_ptr<Counters[]> counters_;
};

}  // namespace sec::shard
