// core/elim_pool.hpp — the SEC machinery generalised to an unordered pool
// (paper conclusion: the sharded elimination/combining layer is not
// stack-specific). Unlike SecStack, which funnels every combined run through
// ONE top pointer, ElimPool gives each aggregator its own spine: the last
// shared contention point disappears, at the price of LIFO order: its shape
// is `unordered`, and peek() always reports nullopt. pop() falls back to
// stealing from sibling spines when the local one is empty.
// `secbench ablation_pool` measures what that buys. Reclamation is
// pluggable (sec::reclaim); EBR remains the default.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "core/aggregator.hpp"
#include "core/common.hpp"
#include "core/config.hpp"
#include "core/container_concept.hpp"
#include "core/spine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec {

template <class V, reclaim::Reclaimer R = reclaim::EpochDomain>
class ElimPool {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::unordered;

    explicit ElimPool(Config cfg)
        : aggs_(cfg, /*eliminate=*/true),
          spines_(std::make_unique<Spine[]>(aggs_.num_aggregators())) {}
    ElimPool(Config cfg, R& domain)
        : aggs_(cfg, /*eliminate=*/true),
          domain_(domain),
          spines_(std::make_unique<Spine[]>(aggs_.num_aggregators())) {}

    ~ElimPool() {
        for (std::size_t a = 0; a < aggs_.num_aggregators(); ++a) {
            detail::spine_destroy(spines_[a].top);
        }
    }

    ElimPool(const ElimPool&) = delete;
    ElimPool& operator=(const ElimPool&) = delete;

    bool push(const V& v) {
        const std::size_t id = detail::tid();
        if (aggs_.is_overflow(id)) {
            detail::spine_push_chain(spines_[0].top, &v, 1);
            return true;
        }
        (void)aggs_.execute(
            id, Aggs::kOpPush, v,
            [this](std::size_t a, const V* vals, std::size_t n) {
                detail::spine_push_chain(spines_[a].top, vals, n);
            },
            [this](std::size_t a, V* out, std::size_t n) {
                return pop_any(a, out, n);
            });
        return true;
    }

    std::optional<V> pop() {
        const std::size_t id = detail::tid();
        if (aggs_.is_overflow(id)) {
            V out{};
            return pop_any(0, &out, 1) == 1 ? std::optional<V>(out)
                                            : std::nullopt;
        }
        return aggs_.execute(
            id, Aggs::kOpPop, V{},
            [this](std::size_t a, const V* vals, std::size_t n) {
                detail::spine_push_chain(spines_[a].top, vals, n);
            },
            [this](std::size_t a, V* out, std::size_t n) {
                return pop_any(a, out, n);
            });
    }

    // A pool has no top to observe.
    std::optional<V> peek() const { return std::nullopt; }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    StatsSnapshot stats() const { return aggs_.stats(); }

private:
    using Aggs = detail::AggregatorSet<V>;

    struct alignas(kCacheLineSize) Spine {
        std::atomic<detail::SpineNode<V>*> top{nullptr};
    };

    // Pop up to n values, preferring the local spine, then stealing.
    std::size_t pop_any(std::size_t a, V* out, std::size_t n) {
        typename R::Guard guard(*domain_);
        std::size_t got = detail::spine_pop_chain(spines_[a].top, guard, out,
                                                  n);
        const std::size_t k = aggs_.num_aggregators();
        for (std::size_t step = 1; got < n && step < k; ++step) {
            got += detail::spine_pop_chain(spines_[(a + step) % k].top,
                                           guard, out + got, n - got);
        }
        return got;
    }

    Aggs aggs_;
    reclaim::DomainRef<R> domain_;
    std::unique_ptr<Spine[]> spines_;
};

}  // namespace sec
