// core/ms_queue.hpp — the classic lock-free FIFO queue (Michael & Scott,
// PODC'96): a dummy-headed linked list where every enqueue CASes one node
// onto tail->next (helping a lagging tail forward) and every dequeue CASes
// head one node ahead. The per-op contention baseline of the `queue`
// scenario — the FIFO counterpart of TreiberStack's role in Figure 2: both
// ends are single contended lines that every thread fights for, which is
// exactly what SecQueue's batching amortizes away.
//
// Templated over the reclamation scheme (sec::reclaim); EBR remains the
// default. Under hazard pointers the dequeue is the interesting path: it
// must protect TWO nodes — the dummy it will retire (slot 0) and the
// successor whose value it reads (slot 1) — revalidating head after the
// second announcement, since a concurrently retired dummy's next pointer
// may reference an already-freed node. reclaim_conformance_test drives
// exactly this two-node window.
#pragma once

#include <atomic>
#include <optional>

#include "core/common.hpp"
#include "core/container_concept.hpp"
#include "core/fifo_spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class MsQueue {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::fifo;

    explicit MsQueue(std::size_t /*max_threads*/) {
        detail::fifo_init(head_, tail_);
    }
    MsQueue(std::size_t /*max_threads*/, R& domain) : domain_(domain) {
        detail::fifo_init(head_, tail_);
    }

    ~MsQueue() { detail::fifo_destroy(head_, tail_); }

    MsQueue(const MsQueue&) = delete;
    MsQueue& operator=(const MsQueue&) = delete;

    bool push(const V& v) {
        Node* node = new Node{v};
        typename R::Guard guard(*domain_);
        for (;;) {
            // Protecting tail keeps `t` dereferenceable: a node is retired
            // only after head passes it, but tail may still point at it.
            Node* t = guard.protect(0u, tail_);
            Node* next = t->next.load(std::memory_order_acquire);
            if (SEC_UNLIKELY(next != nullptr)) {
                // Tail lagged behind a finished link: help it forward.
                tail_.compare_exchange_weak(t, next,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
                continue;
            }
            Node* expected = nullptr;
            if (SEC_LIKELY(t->next.compare_exchange_weak(
                    expected, node, std::memory_order_release,
                    std::memory_order_relaxed))) {
                // Swing tail; a failed CAS means someone helped already.
                tail_.compare_exchange_strong(t, node,
                                              std::memory_order_release,
                                              std::memory_order_relaxed);
                return true;
            }
            detail::cpu_relax();
        }
    }

    std::optional<V> pop() {
        typename R::Guard guard(*domain_);
        for (;;) {
            Node* h = guard.protect(0u, head_);  // dummy we may retire
            Node* t = tail_.load(std::memory_order_acquire);
            Node* next = h->next.load(std::memory_order_acquire);
            if (next == nullptr) return std::nullopt;  // empty
            // Second protected node: announce the successor, then make sure
            // head did not move — if it did, h may be retired and `next`
            // read from freed memory, so start over.
            guard.publish(1u, next);
            if (SEC_UNLIKELY(!guard.validate(head_, h))) {
                detail::cpu_relax();
                continue;
            }
            if (SEC_UNLIKELY(h == t)) {
                // Head caught a lagging tail: help before advancing past it
                // (head must never overtake tail).
                tail_.compare_exchange_weak(t, next,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
                continue;
            }
            // Copy before the CAS: once head advances, a later dequeuer may
            // retire `next` (as its dummy) while we still hold the value.
            V out = next->value;
            Node* expected = h;
            if (SEC_LIKELY(head_.compare_exchange_weak(
                    expected, next, std::memory_order_acq_rel,
                    std::memory_order_acquire))) {
                guard.domain().retire(h);
                return out;
            }
            detail::cpu_relax();
        }
    }

    // Front element (what pop() would return).
    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        return detail::fifo_peek(head_, guard);
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

private:
    using Node = detail::QueueNode<V>;

    reclaim::DomainRef<R> domain_;
    alignas(kCacheLineSize) std::atomic<Node*> head_{nullptr};
    alignas(kCacheLineSize) std::atomic<Node*> tail_{nullptr};
};

}  // namespace sec
