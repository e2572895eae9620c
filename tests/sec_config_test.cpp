// sec_config_test.cpp — Config validation and the stats plumbing behind
// `secbench table1`: aggregator counts 1-5, workers on one aggregator or
// spread over several, collect_stats yielding non-zero
// batching/elimination degrees on an update-heavy mix, and the direct-entry
// accounting (every push and pop is counted once, as direct or as batched).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>  // std::this_thread::yield
#include <vector>

#include "exec/worker_pool.hpp"
#include "sec.hpp"

namespace {

using Value = std::uint64_t;
using Stack = sec::SecStack<Value>;

TEST(SecConfigTest, RejectsAggregatorCountOutOfRange) {
    sec::Config cfg;
    cfg.num_aggregators = 0;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
    cfg.num_aggregators = sec::kMaxAggregators + 1;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
}

TEST(SecConfigTest, RejectsBackoffBeyondMaxWindow) {
    sec::Config cfg;
    cfg.freezer_backoff_ns = sec::kMaxFreezerBackoffNs;
    cfg.validate();  // the bound itself is legal
    cfg.freezer_backoff_ns = sec::kMaxFreezerBackoffNs + 1;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
}

TEST(SecConfigTest, RejectsBadMaxThreads) {
    sec::Config cfg;
    cfg.max_threads = 0;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
    cfg.max_threads = sec::kMaxThreads + 1;
    EXPECT_THROW(Stack{cfg}, std::invalid_argument);
}

TEST(SecConfigTest, AcceptsAllAggregatorCounts) {
    for (std::size_t aggs = 1; aggs <= sec::kMaxAggregators; ++aggs) {
        sec::Config cfg;
        cfg.num_aggregators = aggs;
        cfg.max_threads = 16;
        Stack stack(cfg);
        stack.push(aggs);
        EXPECT_EQ(stack.pop().value(), aggs);
        EXPECT_FALSE(stack.pop().has_value());
    }
}

// Thread ids map to aggregators in blocks of max_threads / K. With the
// default K = 4, max_threads = kMaxThreads (512) puts ids 0-127, and so
// every worker here, on one aggregator; max_threads 8 gives each pair of
// ids its own.
TEST(SecConfigTest, OneAggregatorOrSeveralKeepEveryPush) {
    for (std::size_t max_threads : {sec::kMaxThreads, std::size_t{8}}) {
        sec::Config cfg;
        cfg.max_threads = max_threads;
        Stack stack(cfg);
        constexpr unsigned kThreads = 4;
        constexpr std::uint64_t kPerThread = 5000;
        sec::exec::WorkerPool::run(
            kThreads, [&stack](sec::exec::WorkerContext&) {
                for (std::uint64_t i = 0; i < kPerThread; ++i) {
                    stack.push(i);
                }
            });
        std::uint64_t drained = 0;
        while (stack.pop().has_value()) ++drained;
        EXPECT_EQ(drained, kThreads * kPerThread);
    }
}

TEST(SecConfigTest, StatsOffByDefault) {
    sec::Config cfg;
    cfg.max_threads = 8;
    Stack stack(cfg);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        stack.push(i);
        (void)stack.pop();
    }
    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.batches, 0u);
    EXPECT_EQ(s.batched_ops, 0u);
    EXPECT_EQ(s.direct_ops, 0u);
}

// A lone thread never loses a spine CAS, so the contention-sensitive entry
// completes every push and pop directly and no batch ever forms.
TEST(SecConfigTest, UncontendedOpsTakeTheDirectPath) {
    sec::Config cfg;
    cfg.max_threads = 8;
    cfg.collect_stats = true;
    Stack stack(cfg);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        stack.push(i);
        EXPECT_EQ(stack.pop().value(), i);
    }
    EXPECT_FALSE(stack.pop().has_value());  // an empty pop is direct too
    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.direct_ops, 2001u);
    EXPECT_EQ(s.batches, 0u);
    EXPECT_EQ(s.batched_ops, 0u);
    EXPECT_DOUBLE_EQ(s.direct_pct(), 100.0);
}

// Below max_threads every op has a slot, so each push and pop is counted
// exactly once: by its owner when its direct CAS landed, by its freezer
// when it went through a batch.
TEST(SecConfigTest, DirectPlusBatchedCountsEveryUpdate) {
    sec::Config cfg;
    cfg.max_threads = 16;
    cfg.collect_stats = true;
    Stack stack(cfg);

    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kPerThread = 20000;
    sec::exec::WorkerPool::run(
        kThreads, [&stack](sec::exec::WorkerContext& wc) {
            sec::Xoshiro256 rng((wc.index + 1) * 0x9E3779B97F4A7C15ull);
            for (std::uint32_t i = 0; i < kPerThread; ++i) {
                if (rng.next_below(2) == 0) {
                    stack.push(i);
                } else {
                    (void)stack.pop();
                }
                // Peeks never reach the entry and are not counted.
                if (i % 8 == 0) (void)stack.peek();
            }
        });
    const sec::StatsSnapshot s = stack.stats();
    EXPECT_EQ(s.direct_ops + s.batched_ops,
              std::uint64_t{kThreads} * kPerThread);
    EXPECT_GT(s.direct_ops, 0u);
    EXPECT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops);
}

TEST(SecConfigTest, CollectStatsYieldsDegreesOnUpdateHeavyMix) {
    sec::Config cfg;
    cfg.max_threads = 16;
    cfg.collect_stats = true;
    Stack stack(cfg);

    constexpr unsigned kThreads = 8;
    constexpr std::uint32_t kPerThread = 20000;
    // Elimination needs pushes and pops to genuinely overlap inside one
    // batch, and most uncontended ops now finish on the direct path without
    // a batch; on a heavily loaded host one round of churn can serialise, so
    // repeat rounds (stats accumulate across them) until pairs met or a
    // deadline passes, instead of asserting on scheduling luck.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (stack.stats().eliminated_ops == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        sec::exec::WorkerPool::run(
            kThreads, [&stack](sec::exec::WorkerContext& wc) {
                const unsigned t = wc.index;
                sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
                // kUpdateHeavy: 50% push, 50% pop.
                for (std::uint32_t i = 0; i < kPerThread; ++i) {
                    if (rng.next_below(100) < sec::kUpdateHeavy.push_pct) {
                        stack.push(i);
                    } else {
                        (void)stack.pop();
                    }
                }
            });
    }

    const sec::StatsSnapshot s = stack.stats();
    EXPECT_GT(s.batches, 0u);
    EXPECT_GT(s.batched_ops, 0u);
    EXPECT_GE(s.batching_degree(), 1.0);
    // Concurrent pushes and pops must have met inside batches.
    EXPECT_GT(s.eliminated_ops, 0u);
    EXPECT_GT(s.elimination_pct(), 0.0);
    // Every batched op is either eliminated or combined, never both.
    EXPECT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops);
    EXPECT_LE(s.elimination_pct() + s.combining_pct(), 100.0001);
}

// Regression: stats() used to sum the counters with bare relaxed loads
// while freezers publish them with lock-serialized load+store, so a MID-RUN
// snapshot (table1's per-point stream) could tear across counters —
// batched already bumped, eliminated not yet — breaking eliminated +
// combined == batched and under-counting whole batches. stats() now takes
// each aggregator's freezer lock, making every snapshot batch-atomic; this
// hammers snapshots under live churn and checks the cross-counter
// invariant plus per-counter monotonicity.
TEST(SecConfigTest, StatsSnapshotIsConsistentUnderConcurrentLoad) {
    sec::Config cfg;
    cfg.max_threads = 16;
    cfg.collect_stats = true;
    cfg.num_aggregators = 2;
    cfg.freezer_backoff_ns = 0;  // maximise batch frequency
    Stack stack(cfg);

    constexpr unsigned kThreads = 4;
    std::atomic<bool> stop{false};
    sec::exec::PoolOptions wo;
    wo.coordinator_in_barrier = false;
    sec::exec::WorkerPool workers(kThreads, wo);
    workers.start([&stack, &stop](sec::exec::WorkerContext& wc) {
        sec::Xoshiro256 rng((wc.index + 1) * 0x9E3779B97F4A7C15ull);
        while (!stop.load(std::memory_order_relaxed)) {
            if (rng.next_below(2) == 0) {
                stack.push(1);
            } else {
                (void)stack.pop();
            }
        }
    });

    // Wait until the workers actually produce batches: on an oversubscribed
    // host the main thread can burn through the whole snapshot loop before
    // a single worker is scheduled, which would make the tear-check vacuous
    // and the final batches > 0 assert a scheduling lottery.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (stack.stats().batches == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    ASSERT_GT(stack.stats().batches, 0u) << "workers never produced a batch";

    sec::StatsSnapshot prev;
    for (int i = 0; i < 2000; ++i) {
        // Let the churn make progress between reads on few-core hosts.
        if ((i & 63) == 0) std::this_thread::yield();
        const sec::StatsSnapshot s = stack.stats();
        ASSERT_EQ(s.eliminated_ops + s.combined_ops, s.batched_ops)
            << "torn mid-batch snapshot at read " << i;
        ASSERT_GE(s.batched_ops, s.batches)
            << "batch with zero ops at read " << i;
        // Cumulative counters only grow.
        ASSERT_GE(s.batches, prev.batches);
        ASSERT_GE(s.batched_ops, prev.batched_ops);
        ASSERT_GE(s.eliminated_ops, prev.eliminated_ops);
        ASSERT_GE(s.combined_ops, prev.combined_ops);
        prev = s;
    }
    stop.store(true, std::memory_order_relaxed);
    workers.join();
    EXPECT_GT(stack.stats().batches, 0u);
}

}  // namespace
