// core/tsi_stack.hpp — timestamped stack (Dodds, Haas, Kirsch, POPL'15
// lineage): each thread pushes into its own single-producer pool, stamping
// elements with a hardware timestamp, so pushes touch no shared memory; a
// pop scans every pool for the youngest untaken element and claims it with
// one CAS on its `taken` flag. This is why TSI dominates push-only workloads
// (Figure 3: no synchronisation at all) and collapses on pop-only (every pop
// pays an all-pools scan).
//
// A push links its node first and stamps it after, the paper's
// insert-then-stamp order. A linked node still carries kUnstamped, which
// every pop and peek ranks youngest: its push is still running, so taking
// it first is a legal order. Stamping before the link would let a push
// that was stamped early but linked late rank older than a push that
// completed before it was linked, and pops would then take the two out of
// LIFO order.
//
// Reclamation is pluggable but restricted to blanket schemes (EBR / QSBR /
// leaky): the all-pools scan dereferences nodes it discovers mid-walk and
// has no anchor to revalidate a per-node hazard against, so hazard pointers
// are rejected at compile time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>

#include "core/common.hpp"
#include "core/container_concept.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class TsiStack {
    static_assert(R::kBlanketProtection,
                  "TsiStack's all-pool scan cannot announce per-node hazards; "
                  "use a blanket reclaimer (EpochDomain/QsbrDomain/LeakyDomain)");

public:
    using value_type = V;
    static constexpr ContainerShape kShape = ContainerShape::lifo;
    using reclaimer_type = R;

    explicit TsiStack(std::size_t max_threads)
        : TsiStack(max_threads, reclaim::DomainRef<R>()) {}
    TsiStack(std::size_t max_threads, R& domain)
        : TsiStack(max_threads, reclaim::DomainRef<R>(domain)) {}

    ~TsiStack() {
        for (std::size_t i = 0; i < num_pools_; ++i) {
            Node* n = pools_[i].head.load(std::memory_order_relaxed);
            while (n != nullptr) {
                Node* next = n->next;
                delete n;
                n = next;
            }
        }
    }

    TsiStack(const TsiStack&) = delete;
    TsiStack& operator=(const TsiStack&) = delete;

    bool push(const V& v) {
        Pool& pool = pools_[pool_of(detail::tid())];
        Node* node = new Node;
        node->value = v;
        // Once linked, the node can be taken, detached and retired by a pop
        // before the stamp below is stored; the guard keeps it allocated
        // until then.
        typename R::Guard guard(*domain_);
        Node* head = pool.head.load(std::memory_order_relaxed);
        do {
            node->next = head;
        } while (!pool.head.compare_exchange_weak(head, node,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
        node->ts.store(now(), std::memory_order_release);
        return true;
    }

    std::optional<V> pop() {
        typename R::Guard guard(*domain_);
        for (;;) {
            Node* best = nullptr;
            std::uint64_t best_ts = 0;
            for (std::size_t i = 0; i < num_pools_; ++i) {
                Node* n = first_untaken(pools_[i]);
                if (n == nullptr) continue;
                const std::uint64_t ts = n->ts.load(std::memory_order_acquire);
                if (best == nullptr || ts > best_ts) {
                    best = n;
                    best_ts = ts;
                }
            }
            if (best == nullptr) return std::nullopt;  // all pools empty
            bool expected = false;
            if (best->taken.compare_exchange_strong(
                    expected, true, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                return best->value;
            }
            // Lost the claim race; rescan.
            detail::cpu_relax();
        }
    }

    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        const Node* best = nullptr;
        std::uint64_t best_ts = 0;
        for (std::size_t i = 0; i < num_pools_; ++i) {
            const Node* n = first_untaken(pools_[i]);
            if (n == nullptr) continue;
            const std::uint64_t ts = n->ts.load(std::memory_order_acquire);
            if (best == nullptr || ts > best_ts) {
                best = n;
                best_ts = ts;
            }
        }
        if (best == nullptr) return std::nullopt;
        return best->value;
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

private:
    // The stamp of a node whose push has linked it but not yet stamped it:
    // younger than any stamp now() returns.
    static constexpr std::uint64_t kUnstamped = ~std::uint64_t{0};

    struct Node {
        V value{};
        std::atomic<std::uint64_t> ts{kUnstamped};
        std::atomic<bool> taken{false};
        Node* next = nullptr;  // toward older elements; immutable once linked
    };

    struct alignas(kCacheLineSize) Pool {
        std::atomic<Node*> head{nullptr};
    };

    TsiStack(std::size_t max_threads, reclaim::DomainRef<R> domain)
        : num_pools_(std::min(std::max<std::size_t>(max_threads, 1),
                              kMaxThreads)),
          domain_(std::move(domain)),
          pools_(std::make_unique<Pool[]>(num_pools_)) {}

    std::size_t pool_of(std::size_t tid) const noexcept {
        return tid < num_pools_ ? tid : tid % num_pools_;
    }

    static std::uint64_t now() noexcept {
#if defined(__x86_64__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
#endif
    }

    // Skip (and detach) the taken prefix of `pool`, returning the youngest
    // live node. Detaching keeps pop cost amortised instead of rescanning an
    // ever-growing dead prefix; detached nodes go to the domain's limbo.
    Node* first_untaken(Pool& pool) {
        Node* head = pool.head.load(std::memory_order_acquire);
        Node* n = head;
        while (n != nullptr && n->taken.load(std::memory_order_acquire)) {
            n = n->next;
        }
        if (n != head) {
            // CAS the whole dead prefix off; the winner retires it.
            if (pool.head.compare_exchange_strong(head, n,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
                Node* dead = head;
                while (dead != n) {
                    Node* next = dead->next;
                    domain_->retire(dead);
                    dead = next;
                }
            }
        }
        return n;
    }

    const Node* first_untaken(const Pool& pool) const {
        const Node* n = pool.head.load(std::memory_order_acquire);
        while (n != nullptr && n->taken.load(std::memory_order_acquire)) {
            n = n->next;
        }
        return n;
    }

    std::size_t num_pools_;
    reclaim::DomainRef<R> domain_;
    std::unique_ptr<Pool[]> pools_;
};

}  // namespace sec
