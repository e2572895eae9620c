// any_runner.cpp — timed-window, latency, and churn runners over AnyStack.
// Worker lifecycle (spawn, tid registration, pinning, counters, join) is
// sec::exec::WorkerPool's; the measured loops themselves live behind one
// virtual phase call per worker (see core/stack_concept.hpp).
#include "workload/any_runner.hpp"

#include <thread>
#include <vector>

#include "core/common.hpp"
#include "exec/worker_pool.hpp"

namespace sec::bench {
namespace {

exec::PoolOptions pool_options(const RunConfig& cfg) {
    exec::PoolOptions opts;
    opts.pin = cfg.pin;
    opts.counters = cfg.counters;
    return opts;
}

// One timed window on `stack`; accumulates into `result`. Workers time
// their own measured span: ops completed between the coordinator's stop
// store and the worker's exit are real work, and charging them against the
// coordinator's sleep window — which excludes that overshoot — used to
// inflate short-window results by a scheduling-dependent amount.
void one_round(AnyStack& stack, const RunConfig& cfg, unsigned run,
               RunResult& result) {
    using Clock = std::chrono::steady_clock;
    std::atomic<bool> stop{false};
    std::vector<CacheAligned<std::uint64_t>> ops(cfg.threads);
    std::vector<CacheAligned<Clock::time_point>> begins(cfg.threads);
    std::vector<CacheAligned<Clock::time_point>> ends(cfg.threads);

    exec::WorkerPool pool(cfg.threads, pool_options(cfg));
    pool.start([&, run](exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        PhaseArgs args;
        args.value_range = cfg.value_range;
        args.mix = cfg.mix;
        args.seed = phase_seed(cfg.seed, t, run, 1);
        stack.prefill(prefill_share(cfg.prefill, cfg.threads, t), args);
        wc.sync();
        wc.counters_restart();  // measured span only, not the prefill
        *begins[t] = Clock::now();
        args.seed = phase_seed(cfg.seed, t, run);
        *ops[t] = stack.mixed_until(stop, args);
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
    const double us =
        std::chrono::duration<double, std::micro>(end - start).count();
    result.total_ops += total;
    result.mops += us > 0 ? static_cast<double>(total) / us : 0.0;
}

}  // namespace

RunResult run_throughput_any(const AnyStackFactory& make,
                             const RunConfig& cfg) {
    RunResult result;
    if (cfg.threads == 0) return result;  // see RunConfig::threads
    for (unsigned run = 0; run < cfg.runs; ++run) {
        AnyStack stack = make();
        one_round(stack, cfg, run, result);
    }
    result.mops /= cfg.runs;
    return result;
}

RunResult run_throughput_any(AnyStack& stack, const RunConfig& cfg) {
    RunResult result;
    if (cfg.threads == 0) return result;  // see RunConfig::threads
    for (unsigned run = 0; run < cfg.runs; ++run) {
        one_round(stack, cfg, run, result);
    }
    result.mops /= cfg.runs;
    return result;
}

LatencyHistogram run_latency_any(AnyStack& stack, const RunConfig& cfg) {
    LatencyHistogram merged;
    if (cfg.threads == 0) return merged;
    std::atomic<bool> stop{false};
    std::vector<CacheAligned<LatencyHistogram>> hists(cfg.threads);

    exec::WorkerPool pool(cfg.threads, pool_options(cfg));
    pool.start([&](exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        PhaseArgs args;
        args.value_range = cfg.value_range;
        args.mix = cfg.mix;
        args.seed = phase_seed(cfg.seed, t, 0, 1);
        stack.prefill(prefill_share(cfg.prefill, cfg.threads, t), args);
        wc.sync();
        wc.counters_restart();
        args.seed = phase_seed(cfg.seed, t, 0);
        stack.timed_until(stop, args, *hists[t]);
    });
    pool.sync();
    std::this_thread::sleep_for(cfg.duration);
    stop.store(true, std::memory_order_relaxed);
    pool.join();

    for (const auto& h : hists) merged.merge_from(*h);
    return merged;
}

double run_churn_any(AnyStack& stack, unsigned threads,
                     std::uint64_t ops_per_thread, std::size_t value_range,
                     std::uint64_t seed) {
    if (threads == 0) return 0.0;
    using Clock = std::chrono::steady_clock;
    // Workers rendezvous among themselves (thread spawn cost must not
    // deflate smoke-scale numbers) and time their own measured phase: a
    // clock read on the coordinating thread can be descheduled behind the
    // workers on an oversubscribed host, shrinking the window to near zero.
    std::vector<CacheAligned<Clock::time_point>> begins(threads);
    std::vector<CacheAligned<Clock::time_point>> ends(threads);
    exec::WorkerPool::run(threads, [&](exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        PhaseArgs args;
        args.value_range = value_range;
        args.mix = kUpdateHeavy;  // balanced push/pop churn
        args.seed = phase_seed(seed, t, 0);
        wc.sync();
        *begins[t] = Clock::now();
        stack.mixed_ops(ops_per_thread, args);
        *ends[t] = Clock::now();
    });
    Clock::time_point start = *begins[0];
    Clock::time_point end = *ends[0];
    for (unsigned t = 1; t < threads; ++t) {
        if (*begins[t] < start) start = *begins[t];
        if (*ends[t] > end) end = *ends[t];
    }
    const double us =
        std::chrono::duration<double, std::micro>(end - start).count();
    const double total =
        static_cast<double>(threads) * static_cast<double>(ops_per_thread);
    return us > 0 ? total / us : 0.0;
}

}  // namespace sec::bench
