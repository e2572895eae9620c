// core/cc_stack.hpp — CC-Synch combining (Fatourou & Kallimanis, PPoPP'12):
// requests are announced by swapping a node into a combining queue; the
// thread at the head serves a bounded run of successors, then hands the
// combiner role to the next waiter. The second combining baseline of
// Figure 2.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/common.hpp"
#include "core/container_concept.hpp"
#include "core/seq_stack.hpp"

namespace sec {

template <class V>
class CcStack {
public:
    using value_type = V;
    static constexpr ContainerShape kShape = ContainerShape::lifo;

    explicit CcStack(std::size_t /*max_threads*/) {
        auto* initial = new CcNode();
        initial->status.store(kCombiner, std::memory_order_relaxed);
        track(initial);
        tail_.store(initial, std::memory_order_release);
    }

    ~CcStack() {
        for (CcNode* n : allocated_) delete n;
    }

    CcStack(const CcStack&) = delete;
    CcStack& operator=(const CcStack&) = delete;

    bool push(const V& v) {
        request(detail::SeqOp::kPush, v);
        return true;
    }

    std::optional<V> pop() { return request(detail::SeqOp::kPop, V{}); }

    std::optional<V> peek() { return request(detail::SeqOp::kPeek, V{}); }

private:
    static constexpr std::uint32_t kWaiting = 0;
    static constexpr std::uint32_t kDone = 1;       // completed, result ready
    static constexpr std::uint32_t kDoneEmpty = 2;  // completed, no value
    static constexpr std::uint32_t kCombiner = 3;   // combiner role handoff
    // Max requests one combiner serves before handing off (bounds latency of
    // the waiter it would otherwise starve).
    static constexpr std::size_t kCombineLimit = 1024;

    struct alignas(kCacheLineSize) CcNode {
        std::atomic<CcNode*> next{nullptr};
        std::atomic<std::uint32_t> status{kWaiting};
        detail::SeqOp op = detail::SeqOp::kPush;  // plain; published by next
        V in{};
        V out{};
    };

    std::optional<V> request(detail::SeqOp op, const V& v) {
        CcNode* fresh = my_node();
        fresh->next.store(nullptr, std::memory_order_relaxed);
        fresh->status.store(kWaiting, std::memory_order_relaxed);
        CcNode* cur = tail_.exchange(fresh, std::memory_order_acq_rel);
        cur->op = op;
        cur->in = v;
        cur->next.store(fresh, std::memory_order_release);
        set_my_node(cur);  // recycle: `cur` is ours once this op completes

        std::uint32_t st;
        detail::Backoff backoff;
        while ((st = cur->status.load(std::memory_order_acquire)) == kWaiting) {
            backoff.pause();
        }
        if (st != kCombiner) {
            return st == kDone ? std::optional<V>(cur->out) : std::nullopt;
        }

        // We are the combiner: serve from our own request onward.
        CcNode* tmp = cur;
        std::size_t served = 0;
        for (;;) {
            CcNode* next = tmp->next.load(std::memory_order_acquire);
            if (next == nullptr || served >= kCombineLimit) break;
            std::optional<V> r = seq_.apply(tmp->op, tmp->in);
            if (r.has_value()) {
                tmp->out = *r;
                tmp->status.store(kDone, std::memory_order_release);
            } else {
                tmp->status.store(
                    tmp->op == detail::SeqOp::kPush ? kDone : kDoneEmpty,
                    std::memory_order_release);
            }
            ++served;
            tmp = next;
        }
        tmp->status.store(kCombiner, std::memory_order_release);

        const std::uint32_t fin = cur->status.load(std::memory_order_acquire);
        return fin == kDone ? std::optional<V>(cur->out) : std::nullopt;
    }

    CcNode* my_node() {
        const std::size_t id = detail::tid();
        CcNode* n = nodes_[id]->load(std::memory_order_relaxed);
        if (n == nullptr) {
            n = new CcNode();
            track(n);
            nodes_[id]->store(n, std::memory_order_relaxed);
        }
        return n;
    }

    void set_my_node(CcNode* n) {
        nodes_[detail::tid()]->store(n, std::memory_order_relaxed);
    }

    void track(CcNode* n) {
        detail::Backoff backoff;
        while (alloc_lock_.test_and_set(std::memory_order_acquire)) {
            backoff.pause();
        }
        allocated_.push_back(n);
        alloc_lock_.clear(std::memory_order_release);
    }

    // Per-thread recycled node; indexed by the process-wide tid so id reuse
    // after thread exit reuses the node too.
    CacheAligned<std::atomic<CcNode*>> nodes_[kMaxThreads] = {};
    alignas(kCacheLineSize) std::atomic<CcNode*> tail_{nullptr};
    detail::SeqStack<V> seq_;  // only touched by the current combiner
    std::atomic_flag alloc_lock_ = ATOMIC_FLAG_INIT;
    std::vector<CcNode*> allocated_;
};

}  // namespace sec
