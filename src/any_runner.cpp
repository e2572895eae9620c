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

// One measured window on `stack`, the steps every runner shares: each of
// cfg.threads workers loads its share of cfg.prefill, meets the others at
// the barrier, and runs `phase(t, stop, args)` seeded with
// phase_seed(cfg.seed, t, run); the coordinator sleeps cfg.duration, raises
// `stop` and joins. Returns the window's ops, counters and rate. Workers
// time their own span: ops completed between the stop store and a worker's
// exit are real work, and charging them against the coordinator's sleep —
// which excludes that overshoot, and which a descheduled coordinator can
// shrink to near zero — used to inflate short-window results by a
// scheduling-dependent amount.
template <class Phase>
RunResult run_window(AnyStack& stack, const RunConfig& cfg, unsigned run,
                     Phase&& phase) {
    using Clock = std::chrono::steady_clock;
    std::atomic<bool> stop{false};
    std::vector<CacheAligned<std::uint64_t>> ops(cfg.threads);
    std::vector<CacheAligned<Clock::time_point>> begins(cfg.threads);
    std::vector<CacheAligned<Clock::time_point>> ends(cfg.threads);

    exec::PoolOptions opts;
    opts.pin = cfg.pin;
    opts.counters = cfg.counters;
    exec::WorkerPool pool(cfg.threads, opts);
    pool.start([&](exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        PhaseArgs args;
        args.mix = cfg.mix;
        // Each worker loads its share of the prefill, so deep prefills
        // parallelise and (for TSI) spread across pools.
        args.seed = phase_seed(cfg.seed, t, run, 1);
        stack.prefill(prefill_share(cfg.prefill, cfg.threads, t), args);
        wc.sync();
        wc.counters_restart();  // measured span only, not the prefill
        *begins[t] = Clock::now();
        args.seed = phase_seed(cfg.seed, t, run);
        *ops[t] = phase(t, stop, args);
        *ends[t] = Clock::now();
    });

    pool.sync();
    std::this_thread::sleep_for(cfg.duration);
    stop.store(true, std::memory_order_relaxed);
    pool.join();

    RunResult r;
    r.perf = pool.counters();
    Clock::time_point start = *begins[0];
    Clock::time_point end = *ends[0];
    for (unsigned t = 0; t < cfg.threads; ++t) {
        r.total_ops += *ops[t];
        if (*begins[t] < start) start = *begins[t];
        if (*ends[t] > end) end = *ends[t];
    }
    const double us =
        std::chrono::duration<double, std::micro>(end - start).count();
    r.mops = us > 0 ? static_cast<double>(r.total_ops) / us : 0.0;
    return r;
}

// One throughput window on `stack`, accumulated into `result`.
void one_round(AnyStack& stack, const RunConfig& cfg, unsigned run,
               RunResult& result) {
    const RunResult r = run_window(
        stack, cfg, run,
        [&stack](unsigned, const std::atomic<bool>& stop,
                 const PhaseArgs& args) {
            return stack.mixed_until(stop, args);
        });
    result.perf.merge(r.perf);
    result.total_ops += r.total_ops;
    result.mops += r.mops;
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
    std::vector<CacheAligned<LatencyHistogram>> hists(cfg.threads);
    (void)run_window(stack, cfg, 0,
                     [&](unsigned t, const std::atomic<bool>& stop,
                         const PhaseArgs& args) {
                         return stack.timed_until(stop, args, *hists[t]);
                     });
    for (const auto& h : hists) merged.merge_from(*h);
    return merged;
}

double run_churn_any(AnyStack& stack, unsigned threads,
                     std::uint64_t ops_per_thread, std::uint64_t seed) {
    if (threads == 0) return 0.0;
    RunConfig cfg;
    cfg.threads = threads;
    cfg.duration = std::chrono::milliseconds(0);  // the op count ends it
    cfg.mix = kUpdateHeavy;  // balanced push/pop churn
    cfg.seed = seed;
    return run_window(stack, cfg, 0,
                      [&stack, ops_per_thread](unsigned,
                                               const std::atomic<bool>&,
                                               const PhaseArgs& args) {
                          return stack.mixed_ops(ops_per_thread, args);
                      })
        .mops;
}

}  // namespace sec::bench
