// workload/runner.hpp — the timed-window throughput harness every bench
// shares, split into reusable phases:
//
//   phase_prefill      load a worker's share of the initial population
//   phase_mixed_until  the measured mixed-op loop (runs until `stop`)
//   phase_mixed_ops    a fixed-op-count mixed loop (churn / micro timing)
//   phase_timed_until  the mixed loop with per-op latency recording
//
// Scenarios compose phases (e.g. a pop-only drain after a push-only fill)
// instead of re-writing the monolithic worker lambda. The same templates
// back both the statically-typed run_throughput below and the type-erased
// AnyStack path (StackModel): the hot loop is instantiated against the
// concrete stack type either way, so the erased path pays virtual dispatch
// only at phase boundaries — never per op. `secbench micro` measures the
// two paths side by side to keep that property honest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/common.hpp"
#include "core/op_mix.hpp"
#include "core/stack_concept.hpp"
#include "exec/worker_pool.hpp"
#include "workload/histogram.hpp"

namespace sec::bench {

struct RunConfig {
    // Worker count. Precondition: threads >= 1 — the harness divides the
    // prefill across workers and has no one to run it (or the measured
    // window) otherwise. run_throughput returns an all-zero RunResult for
    // threads == 0 instead of dividing by zero.
    unsigned threads = 1;
    std::chrono::milliseconds duration{200};
    std::size_t prefill = 0;
    OpMix mix = kUpdateHeavy;
    std::size_t value_range = std::size_t{1} << 20;
    unsigned runs = 1;
    // Base seed for the per-worker op-mix RNGs (`--seed`): worker t draws
    // from phase_seed(seed, t, run), so two runs with the same seed replay
    // the same op sequences for A/B comparisons.
    std::uint64_t seed = 0;
    // Worker placement (`--pin`). kNone reproduces the historical unpinned
    // threads; anything else pins workers per the policy's plan over the
    // host topology (best-effort — a container that refuses affinity runs
    // unpinned).
    topo::PinPolicy pin = topo::PinPolicy::kNone;
    // Per-worker hardware counter groups over the measured span; degrades
    // to no data (RunResult::perf.any() == false) when perf_event_open is
    // denied, as in CI containers.
    bool counters = false;
};

struct RunResult {
    double mops = 0;  // million operations per second, mean across runs
    std::uint64_t total_ops = 0;  // summed across runs
    // Counter totals over the measured spans, summed across workers and
    // runs. Check perf.any() before deriving per-op rates.
    exec::PerfTotals perf;
};

// This worker's slice of a prefill divided across `threads` workers
// (worker 0 absorbs the remainder).
inline std::size_t prefill_share(std::size_t prefill, unsigned threads,
                                 unsigned t) {
    std::size_t share = prefill / threads;
    if (t == 0) share += prefill % threads;
    return share;
}

// ---- reclamation hooks -----------------------------------------------------

// The hook templates themselves moved to exec/worker_pool.hpp (the worker
// lifecycle layer owns the contract); these aliases keep every phase_*
// call site spelled the same.
namespace detail {
using sec::exec::offline_hook;
using sec::exec::quiesce_hook;
}  // namespace detail

// ---- the phases ------------------------------------------------------------

template <ConcurrentContainer S>
void phase_prefill(S& stack, std::size_t count, const PhaseArgs& args) {
    Xoshiro256 rng(args.seed);
    for (std::size_t i = 0; i < count; ++i) {
        detail::quiesce_hook(stack);
        stack.push(static_cast<typename S::value_type>(
            rng.next_below(args.value_range)));
    }
    detail::offline_hook(stack);
}

template <ConcurrentContainer S>
std::uint64_t phase_mixed_until(S& stack, const std::atomic<bool>& stop,
                                const PhaseArgs& args) {
    Xoshiro256 rng(args.seed);
    const unsigned push_cut = args.mix.push_pct;
    const unsigned pop_cut = args.mix.update_pct();
    std::uint64_t local = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        detail::quiesce_hook(stack);
        const std::uint64_t r = rng.next_below(100);
        if (r < push_cut) {
            stack.push(static_cast<typename S::value_type>(
                rng.next_below(args.value_range)));
        } else if (r < pop_cut) {
            (void)stack.pop();
        } else {
            (void)stack.peek();
        }
        ++local;
    }
    detail::offline_hook(stack);
    return local;
}

template <ConcurrentContainer S>
std::uint64_t phase_mixed_ops(S& stack, std::uint64_t count,
                              const PhaseArgs& args) {
    Xoshiro256 rng(args.seed);
    const unsigned push_cut = args.mix.push_pct;
    const unsigned pop_cut = args.mix.update_pct();
    for (std::uint64_t i = 0; i < count; ++i) {
        detail::quiesce_hook(stack);
        const std::uint64_t r = rng.next_below(100);
        if (r < push_cut) {
            stack.push(static_cast<typename S::value_type>(
                rng.next_below(args.value_range)));
        } else if (r < pop_cut) {
            (void)stack.pop();
        } else {
            (void)stack.peek();
        }
    }
    detail::offline_hook(stack);
    return count;
}

// ---- open-loop service lanes (workload/service.hpp, DESIGN.md §9) ----------

// Producer lane: replay a precomputed arrival schedule, pushing each request
// stamped with its scheduled ns offset as the value. The lane waits for each
// scheduled instant (coarse sleep, then a yield loop so few-core hosts don't
// starve the consumers), but it never edits the stamp when it falls behind —
// a late push is billed to the request, which is exactly the
// coordinated-omission-free contract.
template <ConcurrentContainer S>
std::uint64_t phase_serve_produce(S& stack, const ServeProduceArgs& a) {
    using Clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < a.count; ++i) {
        detail::quiesce_hook(stack);
        const auto due = a.epoch + std::chrono::nanoseconds(a.schedule[i]);
        for (;;) {
            const auto now = Clock::now();
            if (now >= due) break;
            const auto gap = due - now;
            if (gap > std::chrono::microseconds(200)) {
                std::this_thread::sleep_for(gap -
                                            std::chrono::microseconds(100));
            } else {
                std::this_thread::yield();
            }
            // QSBR lanes must keep announcing quiescence while idle between
            // arrivals, or a sleeping producer stalls every grace period.
            detail::quiesce_hook(stack);
        }
        stack.push(static_cast<typename S::value_type>(a.schedule[i]));
    }
    detail::offline_hook(stack);
    return a.count;
}

// Consumer lane: pop until the producers are done AND the buffer is drained.
// Two histograms per op: `service` times the pop call alone (the closed-loop
// view), `sojourn` charges completion minus the request's scheduled arrival
// (the open-loop view). A consumer that stalls — preempted, combining for
// others, or the injected test stall — inflates the sojourn of every request
// backed up behind it, which closed-loop service timing cannot see.
template <ConcurrentContainer S>
std::uint64_t phase_serve_consume(S& stack, const std::atomic<bool>& stop,
                                  const ServeConsumeArgs& a,
                                  LatencyHistogram& sojourn,
                                  LatencyHistogram& service) {
    using Clock = std::chrono::steady_clock;
    std::uint64_t done = 0;
    bool stalled = false;
    sec::detail::Backoff backoff;
    for (;;) {
        detail::quiesce_hook(stack);
        if (!stalled && a.stall_ns != 0 && done >= a.stall_after_op) {
            stalled = true;
            sec::detail::spin_for_ns(a.stall_ns);
        }
        const auto t0 = Clock::now();
        const auto v = stack.pop();
        const auto t1 = Clock::now();
        if (v) {
            service.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
            const auto due =
                a.epoch + std::chrono::nanoseconds(static_cast<std::uint64_t>(
                              static_cast<AnyStack::value_type>(*v)));
            sojourn.record(
                t1 > due ? static_cast<std::uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(t1 - due)
                                   .count())
                         : 0);
            ++done;
        } else if (stop.load(std::memory_order_relaxed)) {
            // Producers joined before `stop` was set, so an empty pop after
            // observing it means the buffer is drained for good.
            break;
        } else {
            backoff.pause();
        }
    }
    detail::offline_hook(stack);
    return done;
}

template <ConcurrentContainer S>
std::uint64_t phase_timed_until(S& stack, const std::atomic<bool>& stop,
                                const PhaseArgs& args, LatencyHistogram& hist) {
    Xoshiro256 rng(args.seed);
    const unsigned push_cut = args.mix.push_pct;
    const unsigned pop_cut = args.mix.update_pct();
    std::uint64_t local = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        detail::quiesce_hook(stack);
        const std::uint64_t r = rng.next_below(100);
        const auto t0 = std::chrono::steady_clock::now();
        if (r < push_cut) {
            stack.push(static_cast<typename S::value_type>(
                rng.next_below(args.value_range)));
        } else if (r < pop_cut) {
            (void)stack.pop();
        } else {
            (void)stack.peek();
        }
        const auto t1 = std::chrono::steady_clock::now();
        hist.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        ++local;
    }
    detail::offline_hook(stack);
    return local;
}

// ---- type erasure over the phases ------------------------------------------

// AnyStack::Model for a concrete stack type: per-op calls forward, phase
// calls drop straight into the templates above with S statically known.
template <ConcurrentContainer S>
class StackModel final : public AnyStack::Model {
public:
    explicit StackModel(std::unique_ptr<S> stack) : stack_(std::move(stack)) {}

    bool push(AnyStack::value_type v) override {
        return stack_->push(static_cast<typename S::value_type>(v));
    }
    std::optional<AnyStack::value_type> pop() override {
        if (auto v = stack_->pop()) {
            return static_cast<AnyStack::value_type>(*v);
        }
        return std::nullopt;
    }
    std::optional<AnyStack::value_type> peek() override {
        if (auto v = stack_->peek()) {
            return static_cast<AnyStack::value_type>(*v);
        }
        return std::nullopt;
    }
    ContainerShape shape() const override { return S::kShape; }

    void prefill(std::size_t count, const PhaseArgs& args) override {
        phase_prefill(*stack_, count, args);
    }
    std::uint64_t mixed_until(const std::atomic<bool>& stop,
                              const PhaseArgs& args) override {
        return phase_mixed_until(*stack_, stop, args);
    }
    std::uint64_t mixed_ops(std::uint64_t count,
                            const PhaseArgs& args) override {
        return phase_mixed_ops(*stack_, count, args);
    }
    std::uint64_t timed_until(const std::atomic<bool>& stop,
                              const PhaseArgs& args,
                              LatencyHistogram& hist) override {
        return phase_timed_until(*stack_, stop, args, hist);
    }
    std::uint64_t serve_produce(const ServeProduceArgs& args) override {
        return phase_serve_produce(*stack_, args);
    }
    std::uint64_t serve_consume(const std::atomic<bool>& stop,
                                const ServeConsumeArgs& args,
                                LatencyHistogram& sojourn,
                                LatencyHistogram& service) override {
        return phase_serve_consume(*stack_, stop, args, sojourn, service);
    }

    bool has_stats() const override {
        return requires(const S& s) {
            { s.stats() } -> std::same_as<StatsSnapshot>;
        };
    }
    StatsSnapshot stats() const override {
        if constexpr (requires(const S& s) {
                          { s.stats() } -> std::same_as<StatsSnapshot>;
                      }) {
            return stack_->stats();
        } else {
            return {};
        }
    }

private:
    std::unique_ptr<S> stack_;
};

template <ConcurrentContainer S>
AnyStack erase_stack(std::unique_ptr<S> stack) {
    return AnyStack(std::make_unique<StackModel<S>>(std::move(stack)));
}

// Scenario stream counter: run_scenario advances it after each scenario
// body, so two scenarios of ONE secbench invocation draw from disjoint
// per-worker RNG streams instead of replaying identical op sequences (a
// multi-scenario --csv run used to correlate every scenario's workload).
// Deterministic under --seed: the counter depends only on the scenario's
// position in the invocation, so replays stay exact per scenario. Stream 0
// (no scenario finished yet — every first scenario, every direct runner
// call) reproduces the historical seeding bit-for-bit.
namespace detail {
inline std::atomic<std::uint64_t> g_seed_stream{0};
}  // namespace detail

inline std::uint64_t seed_stream() noexcept {
    return detail::g_seed_stream.load(std::memory_order_relaxed);
}
inline void advance_seed_stream() noexcept {
    detail::g_seed_stream.fetch_add(1, std::memory_order_relaxed);
}

// Per-worker phase seed: deterministic in (base, worker, run, phase salt,
// scenario stream) — distinct per (worker, run), distinct between the
// prefill and the measured phase of the same worker, and distinct across
// the scenarios of one invocation (seed_stream above). `base` comes from
// RunConfig::seed (`--seed`); base 0 at stream 0
// reproduces the historical seeding.
inline std::uint64_t phase_seed(std::uint64_t base, unsigned t, unsigned run,
                                std::uint64_t salt = 0) {
    return (base + t + 1) * 0x9E3779B97F4A7C15ull + run + (salt << 32) +
           seed_stream() * 0xD1B54A32D192ED03ull;
}

// ---- the statically-typed timed-window runner ------------------------------

// `make()` may return a smart pointer (fresh structure per run) or a raw
// pointer (caller keeps the structure alive, e.g. to read stats afterwards).
template <class Factory>
RunResult run_throughput(Factory&& make, const RunConfig& cfg) {
    using Clock = std::chrono::steady_clock;
    RunResult result;
    if (cfg.threads == 0) return result;  // see RunConfig::threads
    for (unsigned run = 0; run < cfg.runs; ++run) {
        auto holder = make();
        auto& stack = *holder;

        std::atomic<bool> stop{false};
        std::vector<CacheAligned<std::uint64_t>> ops(cfg.threads);
        // Workers time their own measured span (one_phased_round /
        // run_churn_any's trick): ops completed between the coordinator's
        // stop store and the worker's exit are real work, and charging them
        // against the coordinator's sleep window — which excludes that
        // overshoot — used to inflate short-window results by a scheduling-
        // dependent amount.
        std::vector<CacheAligned<Clock::time_point>> begins(cfg.threads);
        std::vector<CacheAligned<Clock::time_point>> ends(cfg.threads);

        exec::PoolOptions popts;
        popts.pin = cfg.pin;
        popts.counters = cfg.counters;
        exec::WorkerPool pool(cfg.threads, popts);
        pool.start([&, run](exec::WorkerContext& wc) {
            const unsigned t = wc.index;
            PhaseArgs args;
            args.value_range = cfg.value_range;
            args.mix = cfg.mix;
            // Each worker loads its share of the prefill so deep
            // prefills parallelise and (for TSI) spread across pools.
            args.seed = phase_seed(cfg.seed, t, run, 1);
            phase_prefill(stack, prefill_share(cfg.prefill, cfg.threads, t),
                          args);
            wc.sync();
            // Counters cover the measured span only, not the prefill.
            wc.counters_restart();
            *begins[t] = Clock::now();
            args.seed = phase_seed(cfg.seed, t, run);
            *ops[t] = phase_mixed_until(stack, stop, args);
            *ends[t] = Clock::now();
        });

        pool.sync();
        std::this_thread::sleep_for(cfg.duration);
        stop.store(true, std::memory_order_relaxed);
        pool.join();
        result.perf.merge(pool.counters());

        std::uint64_t total = 0;
        for (const auto& c : ops) total += *c;
        Clock::time_point start = *begins[0];
        Clock::time_point end = *ends[0];
        for (unsigned t = 1; t < cfg.threads; ++t) {
            if (*begins[t] < start) start = *begins[t];
            if (*ends[t] > end) end = *ends[t];
        }
        const double us = std::chrono::duration<double, std::micro>(
                              end - start)
                              .count();
        result.total_ops += total;
        result.mops += us > 0 ? static_cast<double>(total) / us : 0.0;
    }
    result.mops /= cfg.runs;
    return result;
}

}  // namespace sec::bench
