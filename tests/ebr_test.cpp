// ebr_test.cpp — sec::reclaim::EpochDomain accounting: retired = freed +
// limbo after churn, limbo drains once the epoch can advance, and the
// destructor frees whatever backlog remains (the contract `secbench
// reclamation` reports against). Each accounting check reads one stats()
// snapshot, so its counters are consistent with each other.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>  // std::this_thread::yield
#include <vector>

#include "core/treiber_stack.hpp"
#include "exec/worker_pool.hpp"
#include "reclaim/epoch.hpp"

namespace {

using sec::reclaim::EpochDomain;
using sec::reclaim::Stats;

struct Probe {
    explicit Probe(std::atomic<std::uint64_t>& c) : counter(c) {}
    ~Probe() { counter.fetch_add(1, std::memory_order_relaxed); }
    std::atomic<std::uint64_t>& counter;
};

TEST(EbrTest, AccountingBalancesAfterChurn) {
    EpochDomain domain;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 5000;

    sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext&) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            EpochDomain::Guard g(domain);
            domain.retire(new std::uint64_t(i));
        }
    });

    const Stats s = domain.stats();
    EXPECT_EQ(s.retired, kThreads * kPerThread);
    EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    // Amortised epoch advancement must have reclaimed during the run, not
    // deferred everything to destruction.
    EXPECT_GT(s.freed, 0u);
    EXPECT_GT(domain.epoch(), 2u);
}

TEST(EbrTest, LimboDrainsOnEpochAdvance) {
    EpochDomain domain;
    // Fewer retires than the scan interval: nothing freed yet.
    for (int i = 0; i < 10; ++i) domain.retire(new int(i));
    const Stats before = domain.stats();
    EXPECT_EQ(before.retired, 10u);
    EXPECT_EQ(before.in_limbo(), 10u);

    // No active guards: drain advances the epoch and frees the backlog.
    domain.drain_all();
    const Stats after = domain.stats();
    EXPECT_EQ(after.in_limbo(), 0u);
    EXPECT_EQ(after.freed, 10u);
}

TEST(EbrTest, ActiveGuardPinsLimbo) {
    EpochDomain domain;
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    sec::exec::PoolOptions wo;
    wo.coordinator_in_barrier = false;
    sec::exec::WorkerPool reader(1, wo);
    reader.start([&](sec::exec::WorkerContext&) {
        domain.enter();
        entered.store(true);
        while (!release.load()) std::this_thread::yield();
        domain.exit();
    });
    while (!entered.load()) std::this_thread::yield();

    for (int i = 0; i < 10; ++i) domain.retire(new int(i));
    domain.drain_all();
    // The reader's announced epoch blocks full advancement.
    EXPECT_GT(domain.stats().in_limbo(), 0u);

    release.store(true);
    reader.join();
    domain.drain_all();
    EXPECT_EQ(domain.stats().in_limbo(), 0u);
}

TEST(EbrTest, DestructorFreesBacklog) {
    std::atomic<std::uint64_t> destroyed{0};
    constexpr std::uint64_t kCount = 1000;
    {
        EpochDomain domain;
        for (std::uint64_t i = 0; i < kCount; ++i) {
            domain.retire(new Probe(destroyed));
        }
        // Some may already be freed by the amortised path; the destructor
        // must account for the rest.
    }
    EXPECT_EQ(destroyed.load(), kCount);
}

TEST(EbrTest, StacksReportIntoExternalDomain) {
    EpochDomain domain;
    {
        sec::TreiberStack<std::uint64_t> stack(8, domain);
        for (std::uint64_t i = 0; i < 100; ++i) stack.push(i);
        for (std::uint64_t i = 0; i < 100; ++i) {
            EXPECT_TRUE(stack.pop().has_value());
        }
    }
    EXPECT_EQ(domain.stats().retired, 100u);
    domain.drain_all();
    EXPECT_EQ(domain.stats().in_limbo(), 0u);
}

}  // namespace
