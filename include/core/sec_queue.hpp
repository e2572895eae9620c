// core/sec_queue.hpp — the SEC queue: the same K-aggregator batching engine
// as SecStack (core/aggregator.hpp) applied to the FIFO spine
// (core/fifo_spine.hpp).
//
// Nothing about batched publication + single-atomic application is
// LIFO-specific: a run of n enqueues links a private chain behind the tail
// with ONE exchange, and a combiner drains a run of n dequeues with ONE
// head CAS, so the spine sees at most K concurrent writers per end instead
// of one per thread. What does NOT carry over is elimination — handing a
// dequeuer the value of a *concurrent* enqueue would skip every older
// element, which is only linearizable for LIFO — so the aggregators are
// constructed without elimination and every batch is applied to the spine
// (stats therefore report eliminated_ops == 0 by construction). Per-producer FIFO still holds across batches: a producer
// owns one publication slot, so it has at most one enqueue per batch, and
// its k-th enqueue's tail exchange lands before its (k+1)-th is even
// published. See DESIGN.md §12 and the order oracle in
// tests/container_conformance_test.cpp.
//
// Node reclamation is pluggable (sec::reclaim); EBR remains the default.
#pragma once

#include <atomic>
#include <optional>

#include "core/aggregator.hpp"
#include "core/common.hpp"
#include "core/config.hpp"
#include "core/container_concept.hpp"
#include "core/fifo_spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class SecQueue {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::fifo;

    explicit SecQueue(Config cfg) : aggs_(cfg, /*eliminate=*/false) {
        detail::fifo_init(head_, tail_);
    }
    SecQueue(Config cfg, R& domain)
        : aggs_(cfg, /*eliminate=*/false), domain_(domain) {
        detail::fifo_init(head_, tail_);
    }

    ~SecQueue() { detail::fifo_destroy(head_, tail_); }

    SecQueue(const SecQueue&) = delete;
    SecQueue& operator=(const SecQueue&) = delete;

    bool push(const V& v) {
        const std::size_t id = detail::tid();
        if (SEC_UNLIKELY(aggs_.is_overflow(id))) {
            detail::fifo_put_chain(tail_, &v, 1);
            return true;
        }
        (void)aggs_.execute(
            id, Aggs::kOpPush, v,
            [this](const V* vals, std::size_t n) {
                detail::fifo_put_chain(tail_, vals, n);
            },
            [this](V* out, std::size_t n) {
                typename R::Guard guard(*domain_);
                return detail::fifo_take_chain(head_, guard, out, n);
            });
        return true;
    }

    std::optional<V> pop() {
        const std::size_t id = detail::tid();
        if (SEC_UNLIKELY(aggs_.is_overflow(id))) {
            typename R::Guard guard(*domain_);
            V out;
            return detail::fifo_take_chain(head_, guard, &out, 1) == 1
                       ? std::optional<V>(out)
                       : std::nullopt;
        }
        return aggs_.execute(
            id, Aggs::kOpPop, V{},
            [this](const V* vals, std::size_t n) {
                detail::fifo_put_chain(tail_, vals, n);
            },
            [this](V* out, std::size_t n) {
                typename R::Guard guard(*domain_);
                return detail::fifo_take_chain(head_, guard, out, n);
            });
    }

    // Front element (what pop() would return).
    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        return detail::fifo_peek(head_, guard);
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    // Degree counters (Table 1); meaningful when Config::collect_stats.
    // eliminated_ops is structurally zero — see the header comment.
    StatsSnapshot stats() const { return aggs_.stats(); }

    const Config& config() const noexcept { return aggs_.config(); }

private:
    using Aggs = detail::AggregatorSet<V>;

    Aggs aggs_;
    reclaim::DomainRef<R> domain_;
    alignas(kCacheLineSize) std::atomic<detail::QueueNode<V>*> head_{nullptr};
    alignas(kCacheLineSize) std::atomic<detail::QueueNode<V>*> tail_{nullptr};
};

}  // namespace sec
