// core/sec_stack.hpp — the SEC stack: sharded elimination-combining on top
// of a single lock-free (Treiber) spine.
//
// Each operation first tries ONE CAS on the spine and returns if it lands:
// an uncontended op costs what a Treiber op costs. Only a lost race (and the
// skip window it opens, see AggregatorSet::execute_direct_first) sends
// operations to the K aggregators (core/aggregator.hpp): eliminated pairs
// never reach the spine, and each leftover run is applied with ONE CAS — a
// run of n pushes links its chain under the top in a single exchange, a run
// of n pops detaches n nodes in a single exchange. Under contention the
// spine therefore sees at most K batching writers plus the threads between
// skip windows, instead of one per thread, which is where the paper's
// high-thread-count wins come from (Figure 2), while keeping full LIFO
// semantics and per-op linearizability: a direct op linearizes at its CAS
// (an empty pop at its read of a null top), a batched one as before. Node
// reclamation is pluggable (sec::reclaim); EBR remains the default. K and
// the freezer backoff are fixed per instance by its Config, as in the paper;
// `secbench sweep` maps the static tuning surface (DESIGN.md §5).
#pragma once

#include <atomic>
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
class SecStack {
public:
    using value_type = V;
    using reclaimer_type = R;
    static constexpr ContainerShape kShape = ContainerShape::lifo;

    explicit SecStack(Config cfg) : aggs_(cfg, /*eliminate=*/true) {}
    SecStack(Config cfg, R& domain)
        : aggs_(cfg, /*eliminate=*/true), domain_(domain) {}

    ~SecStack() { detail::spine_destroy(top_); }

    SecStack(const SecStack&) = delete;
    SecStack& operator=(const SecStack&) = delete;

    bool push(const V& v) {
        const std::size_t id = detail::tid();
        // Overflow (more live threads than Config::max_threads) is a
        // configuration escape hatch, not a steady state — keep the slotted
        // path fall-through.
        if (SEC_UNLIKELY(aggs_.is_overflow(id))) {
            detail::spine_push_chain(top_, &v, 1);
            return true;
        }
        (void)aggs_.execute_direct_first(
            id, Aggs::kOpPush, v,
            [this, &v](std::optional<V>&) {
                return detail::spine_try_push(top_, v);
            },
            apply_pushes(), apply_pops());
        return true;
    }

    std::optional<V> pop() {
        const std::size_t id = detail::tid();
        if (SEC_UNLIKELY(aggs_.is_overflow(id))) {
            typename R::Guard guard(*domain_);
            V out{};
            return detail::spine_pop_chain(top_, guard, &out, 1) == 1
                       ? std::optional<V>(out)
                       : std::nullopt;
        }
        return aggs_.execute_direct_first(
            id, Aggs::kOpPop, V{},
            [this](std::optional<V>& result) {
                typename R::Guard guard(*domain_);
                V out{};
                const std::optional<std::size_t> got =
                    detail::spine_try_pop_chain(top_, guard, &out, 1);
                if (!got) return false;
                if (*got == 1) result = out;
                return true;
            },
            apply_pushes(), apply_pops());
    }

    std::optional<V> peek() const {
        typename R::Guard guard(*domain_);
        return detail::spine_peek(top_, guard);
    }

    // Reclamation hooks the workload runner drives (see runner.hpp).
    void quiesce() { domain_->quiesce(); }
    void reclaim_offline() { domain_->offline(); }

    // Degree counters (Table 1); meaningful when Config::collect_stats.
    StatsSnapshot stats() const { return aggs_.stats(); }

    const Config& config() const noexcept { return aggs_.config(); }

private:
    using Aggs = detail::AggregatorSet<V>;

    // The freezer's application of a batch's leftover run: one CAS each.
    auto apply_pushes() {
        return [this](const V* vals, std::size_t n) {
            detail::spine_push_chain(top_, vals, n);
        };
    }
    auto apply_pops() {
        return [this](V* out, std::size_t n) {
            typename R::Guard guard(*domain_);
            return detail::spine_pop_chain(top_, guard, out, n);
        };
    }

    Aggs aggs_;
    reclaim::DomainRef<R> domain_;
    alignas(kCacheLineSize) std::atomic<detail::SpineNode<V>*> top_{nullptr};
};

}  // namespace sec
