// workload/runner.hpp — the phases every closed-loop bench composes:
//
//   phase_prefill  load a worker's share of the initial population
//   phase_mixed    the one mixed-op loop: until a stop flag (StopFlag), for
//                  a fixed op count (OpCount), and timed per op when handed
//                  a histogram
//
// StackModel instantiates each phase against the concrete stack type and
// erases it behind one AnyStack virtual call, so the erased runners
// (workload/any_runner.hpp) pay virtual dispatch only at phase boundaries —
// never per op. `secbench micro` times a phase called directly against the
// same phase behind AnyStack to keep that property honest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/common.hpp"
#include "core/op_mix.hpp"
#include "core/stack_concept.hpp"
#include "exec/worker_pool.hpp"
#include "workload/histogram.hpp"

namespace sec::bench {

struct RunConfig {
    // Worker count. Precondition: threads >= 1 — the harness divides the
    // prefill across workers and has no one to run it (or the measured
    // window) otherwise. run_throughput_any returns an all-zero RunResult
    // for threads == 0 instead of dividing by zero.
    unsigned threads = 1;
    std::chrono::milliseconds duration{200};
    std::size_t prefill = 0;
    OpMix mix = kUpdateHeavy;
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

// ---- the phases ------------------------------------------------------------

// Every phase pushes values drawn uniformly from [0, kValueRange).
inline constexpr std::uint64_t kValueRange = std::uint64_t{1} << 20;

template <ConcurrentContainer S>
void phase_prefill(S& stack, std::size_t count, const PhaseArgs& args) {
    Xoshiro256 rng(args.seed);
    for (std::size_t i = 0; i < count; ++i) {
        exec::quiesce_hook(stack);
        stack.push(
            static_cast<typename S::value_type>(rng.next_below(kValueRange)));
    }
    exec::offline_hook(stack);
}

// How a mixed loop ends: once `stop` is raised (the timed windows), or
// after `count` ops (churn, micro timing).
struct StopFlag {
    const std::atomic<bool>& stop;
    bool operator()(std::uint64_t) const {
        return stop.load(std::memory_order_relaxed);
    }
};
struct OpCount {
    std::uint64_t count;
    bool operator()(std::uint64_t done) const { return done >= count; }
};

// The mixed-op loop behind every mixed phase: each op is drawn from
// args.mix until `done` says stop; returns the ops run. Handed a
// histogram, it times every op into it; otherwise it reads no clock.
template <ConcurrentContainer S, class Done, class Hist = std::nullptr_t>
std::uint64_t phase_mixed(S& stack, const PhaseArgs& args, Done done,
                          Hist hist = nullptr) {
    using Clock = std::chrono::steady_clock;
    constexpr bool kTimed = !std::is_null_pointer_v<Hist>;
    Xoshiro256 rng(args.seed);
    const unsigned push_cut = args.mix.push_pct;
    const unsigned pop_cut = args.mix.update_pct();
    std::uint64_t ops = 0;
    while (!done(ops)) {
        exec::quiesce_hook(stack);
        const std::uint64_t r = rng.next_below(100);
        [[maybe_unused]] Clock::time_point t0;
        if constexpr (kTimed) t0 = Clock::now();
        if (r < push_cut) {
            stack.push(static_cast<typename S::value_type>(
                rng.next_below(kValueRange)));
        } else if (r < pop_cut) {
            (void)stack.pop();
        } else {
            (void)stack.peek();
        }
        if constexpr (kTimed) {
            hist->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count()));
        }
        ++ops;
    }
    exec::offline_hook(stack);
    return ops;
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
        return phase_mixed(*stack_, args, StopFlag{stop});
    }
    std::uint64_t mixed_ops(std::uint64_t count,
                            const PhaseArgs& args) override {
        return phase_mixed(*stack_, args, OpCount{count});
    }
    std::uint64_t timed_until(const std::atomic<bool>& stop,
                              const PhaseArgs& args,
                              LatencyHistogram& hist) override {
        return phase_mixed(*stack_, args, StopFlag{stop}, &hist);
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

}  // namespace sec::bench
