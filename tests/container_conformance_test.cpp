// container_conformance_test.cpp — the shape contract, checked generically.
//
// One typed suite over the ConcurrentContainer concept covering the LIFO
// spines (SEC, TRB), the FIFO trio (SEC_Q, MS, FCQ/FcStack), and the full
// reclaimer cross-product where the container is reclaim-templated
// (EBR/HP/QSBR/leak). Every element is stamped with a (producer, seq)
// token (container_checkers.hpp); the suite then verifies, per shape:
//
//   * conservation — the multiset of removals equals the multiset of
//     inserts after any churn (no loss, no duplication, no invention);
//   * FIFO — per (observer, producer) strictly increasing seqs, both in a
//     quiescent drain and under full concurrent producer/consumer churn at
//     8+8 threads (a queue that reorders only under contention fails here);
//   * LIFO — per (observer, producer) strictly decreasing seqs in the
//     quiescent drain (under concurrent churn elimination legally
//     short-circuits pairs, so the LIFO oracle needs the two-phase shape).
//
// Designed to run clean under -DSEC_SANITIZE=thread and =address.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "container_checkers.hpp"
#include "exec/worker_pool.hpp"
#include "sec.hpp"

namespace {

namespace st = sec::testing;
using st::Value;

template <class C>
class ContainerConformanceTest : public ::testing::Test {};

// Reclaim-templated containers appear once per scheme; the flat-combining
// pair owns its nodes behind the lock and takes no reclaimer.
using ContainerTypes = ::testing::Types<
    // LIFO: SEC and Treiber across all four schemes.
    sec::SecStack<Value>, sec::SecStack<Value, sec::reclaim::HazardDomain>,
    sec::SecStack<Value, sec::reclaim::QsbrDomain>,
    sec::SecStack<Value, sec::reclaim::LeakyDomain>,
    sec::TreiberStack<Value>,
    sec::TreiberStack<Value, sec::reclaim::HazardDomain>,
    sec::TreiberStack<Value, sec::reclaim::QsbrDomain>,
    sec::TreiberStack<Value, sec::reclaim::LeakyDomain>,
    // FIFO: SEC_Q and MS across all four schemes.
    sec::SecQueue<Value>, sec::SecQueue<Value, sec::reclaim::HazardDomain>,
    sec::SecQueue<Value, sec::reclaim::QsbrDomain>,
    sec::SecQueue<Value, sec::reclaim::LeakyDomain>,
    sec::MsQueue<Value>, sec::MsQueue<Value, sec::reclaim::HazardDomain>,
    sec::MsQueue<Value, sec::reclaim::QsbrDomain>,
    sec::MsQueue<Value, sec::reclaim::LeakyDomain>,
    // Flat combining, both shapes.
    sec::FcStack<Value>, sec::FcQueue<Value>>;
TYPED_TEST_SUITE(ContainerConformanceTest, ContainerTypes);

TYPED_TEST(ContainerConformanceTest, SatisfiesTheConcept) {
    static_assert(sec::ConcurrentContainer<TypeParam>);
    static_assert(TypeParam::kShape == sec::ContainerShape::lifo ||
                  TypeParam::kShape == sec::ContainerShape::fifo);
}

TYPED_TEST(ContainerConformanceTest, PopOnEmptyIsEmptyOptional) {
    auto c = sec::make_stack<TypeParam>(8);
    EXPECT_FALSE(c->pop().has_value());
    EXPECT_FALSE(c->peek().has_value());
    EXPECT_FALSE(c->pop().has_value());
}

TYPED_TEST(ContainerConformanceTest, ShapeTraitMatchesObservedOrder) {
    auto c = sec::make_stack<TypeParam>(8);
    EXPECT_TRUE(c->push(1));
    EXPECT_TRUE(c->push(2));
    EXPECT_TRUE(c->push(3));
    std::vector<Value> out;
    while (auto v = c->pop()) out.push_back(*v);
    if constexpr (TypeParam::kShape == sec::ContainerShape::fifo) {
        EXPECT_EQ(out, (std::vector<Value>{1, 2, 3}));
    } else {
        EXPECT_EQ(out, (std::vector<Value>{3, 2, 1}));
    }
}

TYPED_TEST(ContainerConformanceTest, TokensConservedUnderChurn) {
    auto c = sec::make_stack<TypeParam>(8 + 8);
    const auto r = st::churn(*c, 8, 10000);
    st::expect_conserved(r);
    if constexpr (TypeParam::kShape == sec::ContainerShape::fifo) {
        // FIFO order is checkable even mid-churn: each worker's removals
        // are a subsequence of the total removal order.
        for (unsigned t = 0; t < r.popped.size(); ++t) {
            st::expect_per_producer_monotonic(r.popped[t], 8, true, "worker");
        }
        st::expect_per_producer_monotonic(r.drained, 8, true, "drain");
    }
}

// Two-phase fill-then-drain: producers run to completion first, so the
// container's content order is fully determined per producer and BOTH
// shapes make a checkable promise — increasing seqs for FIFO, decreasing
// for LIFO — for every concurrent drainer.
TYPED_TEST(ContainerConformanceTest, RemovalOrderRespectsShape) {
    constexpr unsigned kProducers = 8;
    constexpr unsigned kConsumers = 8;
    constexpr std::uint32_t kPerProducer = 4000;
    auto c = sec::make_stack<TypeParam>(kProducers + kConsumers + 8);

    sec::exec::WorkerPool::run(kProducers, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        for (std::uint32_t i = 0; i < kPerProducer; ++i) {
            sec::exec::quiesce_hook(*c);
            ASSERT_TRUE(c->push(st::tag(t, i)));
        }
        sec::exec::offline_hook(*c);
    });

    // With no pushes in flight, an empty pop() means genuinely drained:
    // every linearizable removal after that point also sees empty.
    std::vector<std::vector<Value>> taken(kConsumers);
    sec::exec::WorkerPool::run(kConsumers, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        for (;;) {
            sec::exec::quiesce_hook(*c);
            auto v = c->pop();
            if (!v) break;
            taken[t].push_back(*v);
        }
        sec::exec::offline_hook(*c);
    });

    constexpr bool kIncreasing =
        TypeParam::kShape == sec::ContainerShape::fifo;
    std::vector<Value> inserted;
    std::vector<Value> removed;
    for (unsigned t = 0; t < kProducers; ++t) {
        for (std::uint32_t i = 0; i < kPerProducer; ++i) {
            inserted.push_back(st::tag(t, i));
        }
    }
    for (unsigned t = 0; t < kConsumers; ++t) {
        st::expect_per_producer_monotonic(taken[t], kProducers, kIncreasing,
                                          "consumer");
        removed.insert(removed.end(), taken[t].begin(), taken[t].end());
    }
    st::expect_same_multiset(std::move(inserted), std::move(removed));
}

// The acceptance headliner: FIFO total order under FULL concurrent churn —
// 8 dedicated producers and 8 dedicated consumers running simultaneously,
// 16 threads total. Per (consumer, producer) the dequeued seqs must be
// strictly increasing while enqueues race the dequeues; batched enqueue
// publication (SEC_Q's single tail exchange per combiner round) must not
// reorder any producer's elements.
TYPED_TEST(ContainerConformanceTest, FifoTotalOrderUnderConcurrentChurn) {
    if constexpr (TypeParam::kShape != sec::ContainerShape::fifo) {
        GTEST_SKIP() << "FIFO-only oracle; LIFO order under churn is "
                        "covered by RemovalOrderRespectsShape";
    } else {
        constexpr unsigned kProducers = 8;
        constexpr unsigned kConsumers = 8;
        constexpr std::uint32_t kPerProducer = 5000;
        auto c = sec::make_stack<TypeParam>(kProducers + kConsumers + 8);

        std::atomic<bool> done{false};
        std::vector<std::vector<Value>> taken(kConsumers);
        // Two pools so the consumers can outlive the producers: join the
        // producer pool, raise `done`, then join the consumers.
        sec::exec::PoolOptions wo;
        wo.coordinator_in_barrier = false;
        sec::exec::WorkerPool consumers(kConsumers, wo);
        consumers.start([&](sec::exec::WorkerContext& wc) {
            const unsigned t = wc.index;
            for (;;) {
                sec::exec::quiesce_hook(*c);
                if (auto v = c->pop()) {
                    taken[t].push_back(*v);
                } else if (done.load(std::memory_order_acquire)) {
                    // Producers finished and the queue read empty after
                    // that: one more sweep to close the race where the
                    // final enqueue landed between our pop and the
                    // done load.
                    for (;;) {
                        sec::exec::quiesce_hook(*c);
                        auto w = c->pop();
                        if (!w) break;
                        taken[t].push_back(*w);
                    }
                    sec::exec::offline_hook(*c);
                    return;
                }
            }
        });
        sec::exec::WorkerPool producers(kProducers, wo);
        producers.start([&](sec::exec::WorkerContext& wc) {
            const unsigned t = wc.index;
            for (std::uint32_t i = 0; i < kPerProducer; ++i) {
                sec::exec::quiesce_hook(*c);
                ASSERT_TRUE(c->push(st::tag(t, i)));
            }
            sec::exec::offline_hook(*c);
        });
        producers.join();
        done.store(true, std::memory_order_release);
        consumers.join();

        std::vector<Value> inserted;
        std::vector<Value> removed;
        for (unsigned t = 0; t < kProducers; ++t) {
            for (std::uint32_t i = 0; i < kPerProducer; ++i) {
                inserted.push_back(st::tag(t, i));
            }
        }
        for (unsigned t = 0; t < kConsumers; ++t) {
            st::expect_per_producer_monotonic(taken[t], kProducers, true,
                                              "consumer");
            removed.insert(removed.end(), taken[t].begin(), taken[t].end());
        }
        st::expect_same_multiset(std::move(inserted), std::move(removed));
    }
}

}  // namespace
