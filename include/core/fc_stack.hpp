// core/fc_stack.hpp — flat combining (Hendler, Incze, Shavit, Tchiboukdjian,
// SPAA'10): threads publish requests in per-thread slots; whoever wins the
// combiner lock applies every pending request against a sequential backend.
// One of the two combining baselines of Figure 2 ("FC/CC flatten early":
// the single combiner serialises all work).
//
// The combiner protocol is shape-agnostic — only the sequential backend
// decides whether apply(kPop) removes the newest or the oldest element — so
// the protocol lives in detail::FlatCombiner, parameterized on the backend
// and the shape trait it implements. FcStack (here, over detail::SeqStack)
// and FcQueue (core/fc_queue.hpp, over detail::SeqQueue) are instantiations
// of one protocol and cannot diverge.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "core/common.hpp"
#include "core/container_concept.hpp"
#include "core/seq_stack.hpp"

namespace sec {

namespace detail {

// `Seq` must provide `std::optional<V> apply(SeqOp, const V&)` under the
// combiner lock; `Shape` names the removal order that backend implements.
template <class V, class Seq, ContainerShape Shape>
class FlatCombiner {
public:
    using value_type = V;
    static constexpr ContainerShape kShape = Shape;

    explicit FlatCombiner(std::size_t max_threads)
        : max_threads_(std::min(std::max<std::size_t>(max_threads, 1),
                                kMaxThreads)),
          slots_(std::make_unique<Slot[]>(max_threads_)) {}

    FlatCombiner(const FlatCombiner&) = delete;
    FlatCombiner& operator=(const FlatCombiner&) = delete;

    bool push(const V& v) {
        request(kPush, v);
        return true;
    }

    std::optional<V> pop() { return request(kPop, V{}); }

    std::optional<V> peek() { return request(kPeek, V{}); }

private:
    // Slot states double as opcodes; kDone* are terminal until the owner
    // resets the slot to idle.
    static constexpr std::uint32_t kIdle = 0;
    static constexpr std::uint32_t kPush = 1;
    static constexpr std::uint32_t kPop = 2;
    static constexpr std::uint32_t kPeek = 3;
    static constexpr std::uint32_t kDone = 4;
    static constexpr std::uint32_t kDoneValue = 5;
    static constexpr std::uint32_t kDoneEmpty = 6;

    struct alignas(kCacheLineSize) Slot {
        std::atomic<std::uint32_t> state{kIdle};
        V in{};   // written by owner before publishing state
        V out{};  // written by combiner before the kDone* release store
    };

    std::optional<V> request(std::uint32_t op, const V& v) {
        const std::size_t id = detail::tid();
        if (id >= max_threads_) {
            // No publication slot for this thread: take the lock outright.
            detail::Backoff backoff;
            while (lock_.exchange(1, std::memory_order_acquire) != 0) {
                backoff.pause();
            }
            std::optional<V> r = seq_.apply(to_op(op), v);
            combine();  // serve whoever queued up behind us
            lock_.store(0, std::memory_order_release);
            return r;
        }
        Slot& slot = slots_[id];
        slot.in = v;
        slot.state.store(op, std::memory_order_release);
        detail::Backoff backoff;
        for (;;) {
            const std::uint32_t st = slot.state.load(std::memory_order_acquire);
            if (st >= kDone) return consume(slot, st);
            if (lock_.exchange(1, std::memory_order_acquire) == 0) {
                combine();
                lock_.store(0, std::memory_order_release);
                // combine() scans every slot, ours included, so we are done.
                const std::uint32_t fin =
                    slot.state.load(std::memory_order_acquire);
                return consume(slot, fin);
            }
            backoff.pause();
        }
    }

    std::optional<V> consume(Slot& slot, std::uint32_t st) {
        std::optional<V> r;
        if (st == kDoneValue) r = slot.out;
        slot.state.store(kIdle, std::memory_order_relaxed);
        return r;
    }

    // Called with lock_ held.
    void combine() {
        // Two passes pick up requests published while the first pass ran.
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < max_threads_; ++i) {
                Slot& slot = slots_[i];
                const std::uint32_t st =
                    slot.state.load(std::memory_order_acquire);
                if (st == kIdle || st >= kDone) continue;
                std::optional<V> r = seq_.apply(to_op(st), slot.in);
                if (st == kPush) {
                    slot.state.store(kDone, std::memory_order_release);
                } else if (r.has_value()) {
                    slot.out = *r;
                    slot.state.store(kDoneValue, std::memory_order_release);
                } else {
                    slot.state.store(kDoneEmpty, std::memory_order_release);
                }
            }
        }
    }

    static detail::SeqOp to_op(std::uint32_t st) noexcept {
        return static_cast<detail::SeqOp>(st - kPush);
    }

    std::size_t max_threads_;
    std::unique_ptr<Slot[]> slots_;
    alignas(kCacheLineSize) std::atomic<std::uint32_t> lock_{0};
    Seq seq_;  // guarded by lock_
};

}  // namespace detail

template <class V>
using FcStack =
    detail::FlatCombiner<V, detail::SeqStack<V>, ContainerShape::lifo>;

}  // namespace sec
