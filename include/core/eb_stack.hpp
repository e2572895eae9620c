// core/eb_stack.hpp — elimination-backoff stack (Hendler, Shavit,
// Yerushalmi, SPAA'04 lineage): a Treiber stack plus a collision array where
// a push that lost its CAS waits briefly so a concurrent pop can take its
// value directly. Matched pairs never touch the central top. The paper (§2)
// contrasts its three-CAS collision protocol with SEC's two-F&I rendezvous.
// Reclamation is pluggable (sec::reclaim): the pop loop re-protects the head
// through the guard each attempt, so hazard pointers work too — collision
// cells are domain-owned arrays and never freed, so elimination needs no
// protection under any scheme.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>

#include "core/common.hpp"
#include "core/container_concept.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class EbStack {
    static_assert(std::is_trivially_copyable_v<V>,
                  "EbStack exchanges values through atomic cells");

public:
    using value_type = V;
    static constexpr ContainerShape kShape = ContainerShape::lifo;
    using reclaimer_type = R;

    explicit EbStack(std::size_t max_threads)
        : EbStack(max_threads, reclaim::DomainRef<R>()) {}
    EbStack(std::size_t max_threads, R& domain)
        : EbStack(max_threads, reclaim::DomainRef<R>(domain)) {}

    ~EbStack() {
        Node* n = top_.load(std::memory_order_relaxed);
        while (n != nullptr) {
            Node* next = n->next;
            delete n;
            n = next;
        }
    }

    EbStack(const EbStack&) = delete;
    EbStack& operator=(const EbStack&) = delete;

    bool push(const V& v) {
        Node* node = new Node{v, top_.load(std::memory_order_relaxed)};
        const std::size_t id = detail::tid();
        for (;;) {
            if (top_.compare_exchange_weak(node->next, node,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
                return true;
            }
            // Contention: park the value in the collision array and hope a
            // pop eliminates us before the wait window closes.
            if (id < max_threads_ && try_eliminate_push(id, v)) {
                delete node;
                return true;
            }
        }
    }

    std::optional<V> pop() {
        typename R::Guard guard(*domain_);
        const std::size_t id = detail::tid();
        for (;;) {
            Node* head = guard.protect(0u, top_);
            if (head == nullptr) return std::nullopt;
            // head->next is safe: head is protected; a stale next just
            // fails the CAS.
            Node* expected = head;
            if (top_.compare_exchange_strong(expected, head->next,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
                V v = head->value;
                domain_->retire(head);
                return v;
            }
            if (id < max_threads_) {
                if (std::optional<V> v = try_eliminate_pop(id)) return v;
            }
            detail::cpu_relax();
        }
    }

    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        Node* head = guard.protect(0u, top_);
        if (head == nullptr) return std::nullopt;
        return head->value;
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

private:
    struct Node {
        V value;
        Node* next;
    };

    // Exchange cell states: (sequence << 2) | phase. The sequence number,
    // bumped every time the owning thread recycles its cell, defeats ABA on
    // the phase transitions.
    static constexpr std::uint64_t kIdlePhase = 0;
    static constexpr std::uint64_t kWaiting = 1;
    static constexpr std::uint64_t kTaken = 2;
    static constexpr std::uint64_t kWaitWindowNs = 512;

    struct alignas(kCacheLineSize) Cell {
        std::atomic<std::uint64_t> state{0};
        std::atomic<V> value{};
        std::uint64_t seq = 0;  // owned by the cell's thread
    };

    static constexpr std::uint64_t pack(std::uint64_t seq,
                                        std::uint64_t phase) noexcept {
        return (seq << 2) | phase;
    }

    EbStack(std::size_t max_threads, reclaim::DomainRef<R> domain)
        : max_threads_(std::min(std::max<std::size_t>(max_threads, 1),
                                kMaxThreads)),
          num_slots_(std::min<std::size_t>(max_threads_, 16)),
          domain_(std::move(domain)),
          cells_(std::make_unique<Cell[]>(max_threads_)),
          slots_(std::make_unique<std::atomic<Cell*>[]>(num_slots_)) {
        for (std::size_t i = 0; i < num_slots_; ++i) slots_[i] = nullptr;
    }

    bool try_eliminate_push(std::size_t id, const V& v) {
        Cell& cell = cells_[id];
        const std::uint64_t seq = cell.seq;
        cell.value.store(v, std::memory_order_relaxed);
        cell.state.store(pack(seq, kWaiting), std::memory_order_release);
        auto& slot = slots_[rng_for(id).next_below(num_slots_)];
        Cell* expected = nullptr;
        if (!slot.compare_exchange_strong(expected, &cell,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
            // Slot occupied; withdraw the offer — but a popper holding a
            // stale pointer to this cell from an earlier round may already
            // have claimed it, so withdraw via CAS exactly like the timed
            // path (an unconditional reset would clobber its kTaken and
            // deliver the value twice).
            std::uint64_t st = pack(seq, kWaiting);
            const bool withdrawn = cell.state.compare_exchange_strong(
                st, pack(seq, kIdlePhase), std::memory_order_acq_rel,
                std::memory_order_acquire);
            ++cell.seq;
            return !withdrawn;  // claimed by a stale popper: eliminated
        }
        detail::spin_for_ns(kWaitWindowNs);
        std::uint64_t st = pack(seq, kWaiting);
        const bool cancelled = cell.state.compare_exchange_strong(
            st, pack(seq, kIdlePhase), std::memory_order_acq_rel,
            std::memory_order_acquire);
        // Whether we cancelled or a pop took the value, clear our slot entry
        // (the pop may have cleared it already).
        Cell* self = &cell;
        slot.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
        ++cell.seq;
        return !cancelled;
    }

    std::optional<V> try_eliminate_pop(std::size_t id) {
        auto& slot = slots_[rng_for(id).next_below(num_slots_)];
        Cell* cell = slot.load(std::memory_order_acquire);
        if (cell == nullptr) return std::nullopt;
        std::uint64_t st = cell->state.load(std::memory_order_acquire);
        if ((st & 3) != kWaiting) return std::nullopt;
        // Read before claiming: if the claim CAS succeeds the cell cannot
        // have been recycled in between (the sequence would have moved).
        const V v = cell->value.load(std::memory_order_relaxed);
        if (!cell->state.compare_exchange_strong(st, (st & ~3ull) | kTaken,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
            return std::nullopt;
        }
        slot.compare_exchange_strong(cell, nullptr, std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
        return v;
    }

    Xoshiro256& rng_for(std::size_t id) const {
        thread_local Xoshiro256 rng(0xE11Aull ^
                                    (id * 0x9E3779B97F4A7C15ull));
        return rng;
    }

    std::size_t max_threads_;
    std::size_t num_slots_;
    reclaim::DomainRef<R> domain_;
    std::unique_ptr<Cell[]> cells_;
    std::unique_ptr<std::atomic<Cell*>[]> slots_;
    std::atomic<Node*> top_{nullptr};
};

}  // namespace sec
