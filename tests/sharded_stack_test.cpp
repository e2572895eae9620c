// sharded_stack_test.cpp — the sec::shard façade: per-shard LIFO, stealing
// semantics (values parked on a foreign shard are found before an empty
// verdict, and a quiescent empty verdict is exact), load/steal accounting,
// config validation, registry composition of the SEC@shardK variants, and a
// migrating-thread churn designed to run clean under -DSEC_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sharded_stack.hpp"
#include "exec/worker_pool.hpp"
#include "sec.hpp"
#include "workload/registry.hpp"

namespace {

using Value = std::uint64_t;
using Inner = sec::SecStack<Value>;
using Sharded = sec::shard::ShardedStack<Inner>;

std::unique_ptr<Sharded> make_sharded(std::size_t shards,
                                      std::size_t max_threads = 64,
                                      bool collect_stats = false) {
    sec::shard::ShardConfig scfg;
    scfg.num_shards = shards;
    scfg.max_threads = max_threads;
    sec::Config cfg;
    cfg.max_threads = max_threads;
    cfg.num_aggregators =
        std::min(cfg.num_aggregators, cfg.max_threads);
    cfg.collect_stats = collect_stats;
    return std::make_unique<Sharded>(scfg, [cfg](std::size_t) {
        return std::make_unique<Inner>(cfg);
    });
}

TEST(ShardedStack, RejectsBadShardCounts) {
    sec::shard::ShardConfig cfg;
    cfg.num_shards = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.num_shards = sec::shard::kMaxShards + 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.num_shards = 2;
    cfg.max_threads = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// A thread whose pops are never stolen from sees exact LIFO: all its
// operations land on its home shard, which is an individually linearizable
// stack. This is the ordering contract sharding keeps (DESIGN.md §8).
TEST(ShardedStack, SingleThreadIsLifoOnItsHomeShard) {
    auto stack = make_sharded(4);
    constexpr Value kCount = 1000;
    for (Value v = 1; v <= kCount; ++v) EXPECT_TRUE(stack->push(v));
    for (Value v = kCount; v >= 1; --v) {
        auto popped = stack->pop();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(*popped, v);
    }
    EXPECT_FALSE(stack->pop().has_value());

    // Everything went through one shard — the caller's home.
    const sec::shard::ShardStats ss = stack->shard_stats();
    ASSERT_EQ(ss.shard_ops.size(), 4u);
    EXPECT_EQ(ss.shard_ops[stack->home_shard()], 2 * kCount);
    EXPECT_EQ(ss.steals, 0u);
    EXPECT_EQ(ss.pushes, kCount);
    EXPECT_EQ(ss.pops, kCount);
}

TEST(ShardedStack, PeekIsNonDestructiveAndProbesForeignShards) {
    auto stack = make_sharded(4);
    const std::size_t foreign = (stack->home_shard() + 2) % 4;
    stack->shard(foreign).push(7);
    EXPECT_EQ(stack->peek().value(), 7u);
    EXPECT_EQ(stack->peek().value(), 7u);  // unchanged
    EXPECT_EQ(stack->pop().value(), 7u);
    EXPECT_FALSE(stack->peek().has_value());
}

// Values parked on a foreign shard must be found by the steal sweep before
// an empty verdict, in that shard's LIFO order, and the accounting must
// attribute them as steals.
TEST(ShardedStack, PopStealsFromAForeignShardBeforeReportingEmpty) {
    auto stack = make_sharded(4);
    const std::size_t foreign = (stack->home_shard() + 2) % 4;
    constexpr Value kCount = 8;
    for (Value v = 1; v <= kCount; ++v) {
        stack->shard(foreign).push(v);
    }
    for (Value v = kCount; v >= 1; --v) {
        auto popped = stack->pop();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(*popped, v);  // the foreign shard's LIFO order
    }
    EXPECT_FALSE(stack->pop().has_value());

    const sec::shard::ShardStats ss = stack->shard_stats();
    EXPECT_EQ(ss.steals, kCount);
    EXPECT_EQ(ss.shard_ops[foreign], kCount);
    // Each steal probed at least the shards between home and the hit; the
    // final empty pop swept all three foreign shards.
    EXPECT_GE(ss.steal_probes, kCount);
    EXPECT_EQ(ss.empty_pops, 1u);
    EXPECT_GT(ss.steal_pct(), 99.9);
}

// After workers are quiet, a full drain through the façade must leave every
// shard empty — the default probe bound sweeps all shards, so a quiescent
// empty verdict is exact, not probabilistic.
TEST(ShardedStack, QuiescentEmptyVerdictIsExact) {
    auto stack = make_sharded(3);
    for (std::size_t s = 0; s < 3; ++s) {
        for (Value v = 0; v < 50; ++v) stack->shard(s).push(v);
    }
    std::size_t drained = 0;
    while (stack->pop().has_value()) ++drained;
    EXPECT_EQ(drained, 150u);
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_FALSE(stack->shard(s).pop().has_value()) << "shard " << s;
    }
}

TEST(ShardedStack, StatsAggregateAcrossShards) {
    auto stack = make_sharded(2, 64, /*collect_stats=*/true);
    constexpr unsigned kThreads = 4;
    // Uncontended ops finish on the inner stacks' direct path without a
    // batch, so repeat the churn until some shard batched or a deadline
    // passes rather than assert on one round's scheduling.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (stack->stats().batches == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext&) {
            for (Value v = 0; v < 20000; ++v) {
                stack->push(v);
                (void)stack->pop();
            }
        });
    }
    const sec::StatsSnapshot s = stack->stats();
    EXPECT_GT(s.batches, 0u);
    EXPECT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops);
    // Every inner push and pop is counted once, direct or batched: the
    // facade's pushes and pops (hits and empties) plus each steal probe,
    // which is one more inner pop.
    const sec::shard::ShardStats ss = stack->shard_stats();
    EXPECT_EQ(s.direct_ops + s.batched_ops,
              ss.pushes + ss.pops + ss.empty_pops + ss.steal_probes);
}

constexpr Value tag(unsigned thread, std::uint32_t seq) {
    return (static_cast<Value>(thread + 1) << 32) | seq;
}

// Balanced churn across several ROUNDS of short-lived threads: thread ids
// are recycled between rounds, so successive workers inherit ids — and with
// them home shards — other threads just vacated, exercising the
// affinity-under-migration path. Every popped value was pushed exactly
// once; designed to run clean under TSan.
TEST(ShardedStack, MigratingThreadChurnLosesNothing) {
    auto stack = make_sharded(4);
    constexpr unsigned kThreads = 4;
    constexpr unsigned kRounds = 3;
    constexpr std::uint32_t kOps = 8000;

    std::vector<Value> all_pushed;
    std::vector<Value> all_popped;
    for (unsigned round = 0; round < kRounds; ++round) {
        std::vector<std::vector<Value>> pushed(kThreads);
        std::vector<std::vector<Value>> popped(kThreads);
        sec::exec::WorkerPool::run(
            kThreads, [&, round](sec::exec::WorkerContext& wc) {
                const unsigned t = wc.index;
                const unsigned who = round * kThreads + t;
                sec::Xoshiro256 rng((who + 1) * 0x9E3779B97F4A7C15ull);
                std::uint32_t seq = 0;
                for (std::uint32_t i = 0; i < kOps; ++i) {
                    if (rng.next_below(2) == 0) {
                        const Value v = tag(who, seq++);
                        stack->push(v);
                        pushed[t].push_back(v);
                    } else if (auto v = stack->pop()) {
                        popped[t].push_back(*v);
                    }
                }
            });
        for (unsigned t = 0; t < kThreads; ++t) {
            all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                              pushed[t].end());
            all_popped.insert(all_popped.end(), popped[t].begin(),
                              popped[t].end());
        }
    }
    while (auto v = stack->pop()) all_popped.push_back(*v);

    std::sort(all_pushed.begin(), all_pushed.end());
    std::sort(all_popped.begin(), all_popped.end());
    ASSERT_EQ(all_popped.size(), all_pushed.size());
    EXPECT_EQ(all_popped, all_pushed)
        << "value lost, duplicated, or invented under sharded churn";
}

// Pinning must not change the home map: a pinned thread's home is its tid
// hash, like an unpinned one's. (An L3-domain home put all four workers of
// a one-L3 host on shard 0.) Where the kernel refuses affinity the workers
// run unpinned and the check still holds.
TEST(ShardedStack, PinnedWorkersKeepTheirTidHome) {
    constexpr unsigned kWorkers = 4;
    auto stack = make_sharded(4);
    std::vector<std::size_t> homes(kWorkers), tids(kWorkers);
    sec::exec::PoolOptions opts;
    opts.pin = sec::topo::PinPolicy::kCompact;
    sec::exec::WorkerPool::run(kWorkers, opts,
                               [&](sec::exec::WorkerContext& wc) {
                                   homes[wc.index] = stack->home_shard();
                                   tids[wc.index] = sec::detail::tid();
                               });
    for (unsigned w = 0; w < kWorkers; ++w) {
        EXPECT_EQ(homes[w], tids[w] % 4) << "worker " << w;
    }
}

TEST(ShardStats, ImbalanceAndStealPctMath) {
    sec::shard::ShardStats ss;
    EXPECT_DOUBLE_EQ(ss.imbalance(), 1.0);  // idle structure reads balanced
    EXPECT_DOUBLE_EQ(ss.steal_pct(), 0.0);
    ss.shard_ops = {100, 100, 100, 100};
    EXPECT_DOUBLE_EQ(ss.imbalance(), 1.0);
    ss.shard_ops = {400, 0, 0, 0};  // everything on one shard
    EXPECT_DOUBLE_EQ(ss.imbalance(), 4.0);
    ss.pops = 200;
    ss.steals = 50;
    EXPECT_DOUBLE_EQ(ss.steal_pct(), 25.0);
}

// ---- registry composition ---------------------------------------------------

TEST(ShardRegistry, ShardVariantsComposeWithReclaimSchemes) {
    auto& reg = sec::bench::AlgorithmRegistry::instance();
    for (const char* name : {"SEC@shard2", "SEC@shard4", "SEC@shard8"}) {
        const sec::bench::AlgoSpec* spec = reg.find(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_FALSE(spec->default_set) << name;  // paper columns unchanged
        EXPECT_EQ(spec->base, name);  // family IS the sharded name
        EXPECT_EQ(spec->reclaim, "ebr");
        // Per-shard domains are private by design, so the external-domain
        // matrix must skip these.
        EXPECT_FALSE(spec->supports_domain) << name;
        for (const char* scheme : {"hp", "qsbr", "leak"}) {
            const sec::bench::AlgoSpec* variant =
                reg.find_variant(spec->base, scheme);
            ASSERT_NE(variant, nullptr) << name << "@" << scheme;
            EXPECT_EQ(variant->base, spec->base);
            EXPECT_EQ(variant->reclaim, scheme);
        }
    }
}

TEST(ShardRegistry, ErasedShardVariantKeepsSemanticsAndStats) {
    const sec::bench::AlgoSpec* spec =
        sec::bench::AlgorithmRegistry::instance().find("SEC@shard4");
    ASSERT_NE(spec, nullptr);
    sec::bench::StackParams params;
    params.threads = 2;
    sec::AnyStack stack = spec->make(params);
    for (Value v = 1; v <= 16; ++v) EXPECT_TRUE(stack.push(v));
    for (Value v = 16; v >= 1; --v) EXPECT_EQ(stack.pop(), v);
    EXPECT_FALSE(stack.pop().has_value());
    EXPECT_TRUE(stack.has_stats());  // aggregated inner SEC counters
}

}  // namespace
