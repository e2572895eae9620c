// closed_loop.cpp — update_t4 and mixed_t2: pinned closed-loop workers
// driving a SecStack configured exactly as secbench configures it.
//
// A run sets a rig up (stack construction, prefill, worker pool start),
// warms it up and measures equal windows; an untraced run does so for
// kRigs fresh rigs and reports medians over all kReps windows. Call
// latency is a 1-in-kSampleEvery sample, recorded into a LatencyHistogram
// per worker and window. Every pushed value is a unique tag; after a rig's
// windows the stack is drained and the conservation ledger must balance, or
// the run reports a violation. More set-ups are then timed for setup_s.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/sec_stack.hpp"
#include "exec/worker_pool.hpp"
#include "reclaim/epoch.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Stack = sec::SecStack<std::uint64_t, sec::reclaim::EpochDomain>;

// Per-worker cap on pops minus pushes (OpStream); the prefill covers it.
constexpr std::int64_t kMaxDeficit = 1 << 15;
constexpr unsigned kSampleEvery = 128;  // untraced: time 1 op in N
constexpr std::uint64_t kKeepEvery = 4096;   // traced: 1 op span in N kept
constexpr int kSetups = 15;
constexpr int kReps = 10;
// An untraced run measures kRigs fresh set-ups, kReps / kRigs windows each,
// and pools the windows: the level of one set-up (its memory layout) moves
// mixed_t2 by up to ~30 %, so one set-up must not decide the run.
constexpr int kRigs = 10;
constexpr double kWarmupS = 0.25;

constexpr const char* kOpSpan[] = {"core.push", "core.pop", "core.peek"};

struct ClosedSpec {
    const char* name;
    unsigned workers;
    unsigned push_pct;
    unsigned pop_pct;  // the rest are peeks
};

// What one worker produced: written only by that worker, read (and
// `sampled` reset) by the coordinator after a pool barrier.
struct alignas(64) WorkerOut {
    WorkerOut(unsigned index, unsigned sources)
        : ledger(sources), spans(index + 1) {}

    Ledger ledger;
    std::uint64_t ops = 0;
    std::uint64_t pushes = 0;   // also the seq of this worker's next tag
    std::uint64_t empty = 0;    // pops and peeks that found the stack empty
    LatencyHistogram sampled;   // untraced: this window's sampled calls
    LatencyHistogram hist[3];   // traced: every call, by Op
    SpanBuffer spans;
    int cpu = -1;
};

// One set-up: the EBR domain the benchmark owns, the stack borrowing it,
// and the worker pool. Coordinator-written fields are read by workers only
// after a pool barrier.
struct Rig {
    explicit Rig(const ClosedSpec& s) : spec(s), main_ledger(s.workers + 1) {
        outs.reserve(s.workers);
        for (unsigned w = 0; w < s.workers; ++w) {
            outs.emplace_back(w, s.workers + 1);
        }
    }

    const ClosedSpec& spec;
    sec::reclaim::EpochDomain domain;
    std::unique_ptr<Stack> stack;
    std::unique_ptr<sec::exec::WorkerPool> pool;
    std::vector<WorkerOut> outs;
    Ledger main_ledger;  // the prefill and the final drain
    std::uint64_t prefilled = 0;
    std::atomic<bool> stop{false};
    bool exit = false;
    bool traced = false;
    std::uint64_t window_span = 0;  // parent of this window's op spans

    std::uint64_t ops() const {
        std::uint64_t n = 0;
        for (const WorkerOut& o : outs) n += o.ops;
        return n;
    }
};

template <bool kTraced>
void run_window(Rig& r, WorkerOut& out, OpStream& ops, std::uint64_t source) {
    Stack& s = *r.stack;
    const std::uint64_t parent = r.window_span;
    std::uint64_t n = 0;
    while (!r.stop.load(std::memory_order_relaxed)) {
        const Op op = ops.next();
        const bool timed = kTraced || ++n % kSampleEvery == 0;
        const std::uint64_t t0 = timed ? now_ns() : 0;
        std::uint64_t tag = 0;
        std::optional<std::uint64_t> v;
        if (op == Op::kPush) {
            tag = make_tag(source, out.pushes);
            s.push(tag);
        } else if (op == Op::kPop) {
            v = s.pop();
        } else {
            v = s.peek();
        }
        if (timed) {
            const std::uint64_t t1 = now_ns();
            if constexpr (kTraced) {
                out.hist[static_cast<int>(op)].record(t1 - t0);
                if (out.ops % kKeepEvery == 0) {
                    out.spans.add(kOpSpan[static_cast<int>(op)], t0, t1,
                                  parent);
                }
            } else {
                out.sampled.record(t1 - t0);
            }
        }
        if (op == Op::kPush) {
            out.ledger.pushed(tag);
            ++out.pushes;
        } else if (!v) {
            ++out.empty;
        } else if (op == Op::kPop) {
            out.ledger.removed(*v);
        } else {
            out.ledger.seen(*v);
        }
        ++out.ops;
    }
}

void worker_main(Rig& r, std::uint64_t seed, sec::exec::WorkerContext& ctx) {
    WorkerOut& out = r.outs[ctx.index];
    out.cpu = ctx.cpu;
    OpStream ops(stream(seed, Purpose::kOps, ctx.index), r.spec.push_pct,
                 r.spec.pop_pct, kMaxDeficit);
    const std::uint64_t source = ctx.index + 1;
    ctx.sync();  // running, registered and pinned: ends the set-up
    for (;;) {
        ctx.sync();  // a window opens, or the run ends
        if (r.exit) break;
        if (r.traced) {
            run_window<true>(r, out, ops, source);
        } else {
            run_window<false>(r, out, ops, source);
        }
        ctx.sync();  // the window closed
    }
    sec::exec::offline_hook(*r.stack);
}

std::unique_ptr<Rig> set_up(const ClosedSpec& spec, const sec::Config& cfg,
                            std::uint64_t seed, SetupTimes& t,
                            SpanBuffer* trace, std::uint64_t parent) {
    // The benchmark's own buffers (histograms, ledgers) are allocated
    // before the clock starts: setup_s times the library's set-up only.
    auto rig = std::make_unique<Rig>(spec);
    Rig& r = *rig;
    const std::uint64_t t0 = now_ns();
    r.stack = std::make_unique<Stack>(cfg, r.domain);
    const std::uint64_t t1 = now_ns();
    r.prefilled = spec.workers * static_cast<std::uint64_t>(kMaxDeficit) + 64;
    on_pool_thread([&r] {
        for (std::uint64_t i = 0; i < r.prefilled; ++i) {
            const std::uint64_t tag = make_tag(0, i);
            r.stack->push(tag);
            r.main_ledger.pushed(tag);
        }
    });
    const std::uint64_t t2 = now_ns();
    sec::exec::PoolOptions popts;
    popts.pin = sec::topo::PinPolicy::kCompact;
    r.pool = std::make_unique<sec::exec::WorkerPool>(spec.workers, popts);
    r.pool->start(
        [&r, seed](sec::exec::WorkerContext& ctx) { worker_main(r, seed, ctx); });
    r.pool->sync();
    const std::uint64_t t3 = now_ns();
    t.total_s = static_cast<double>(t3 - t0) / 1e9;
    t.start_ms = static_cast<double>(t3 - t2) / 1e6;
    if (trace != nullptr) {
        const std::uint64_t id = trace->reserve_id();
        trace->add("core.construct", t0, t1, id);
        trace->add("core.prefill", t1, t2, id);
        trace->add("exec.start", t2, t3, id);
        trace->add("setup", t0, t3, parent, 0, id);
    }
    return rig;
}

struct Window {
    double mops = 0;
    LatencyHistogram lat;  // sampled call latency (untraced)
    double rss_mb = 0;     // peak resident memory over the window
};

Window window(Rig& r, double secs, SpanBuffer* trace, std::uint64_t parent) {
    r.window_span = trace != nullptr ? trace->reserve_id() : 0;
    const std::uint64_t ops0 = r.ops();
    Window w;
    r.pool->sync();
    const std::uint64_t t0 = now_ns();
    w.rss_mb = window_peak_rss_mb(t0 + static_cast<std::uint64_t>(secs * 1e9));
    r.stop.store(true, std::memory_order_relaxed);
    const std::uint64_t t1 = now_ns();
    r.pool->sync();
    r.stop.store(false, std::memory_order_relaxed);
    if (trace != nullptr) trace->add("window", t0, t1, parent, 0, r.window_span);
    for (WorkerOut& o : r.outs) {  // workers wait at the barrier: safe
        w.lat.merge_from(o.sampled);
        o.sampled = LatencyHistogram{};
    }
    w.mops = static_cast<double>(r.ops() - ops0) /
             (static_cast<double>(t1 - t0) / 1e3);
    return w;
}

struct Measured {
    std::vector<double> rep_mops;
    std::vector<LatencyHistogram> rep_lat;
    std::vector<double> rep_rss_mb;
    sec::reclaim::Stats reclaim0, reclaim1;
    sec::StatsSnapshot core0, core1;
    std::uint64_t ops = 0;  // in the measured windows
};

Measured measure(Rig& r, double seconds, int reps, bool traced,
                 SpanBuffer* trace, std::uint64_t parent) {
    Measured m;
    r.traced = traced;
    window(r, kWarmupS, nullptr, 0);
    for (WorkerOut& o : r.outs) {  // workers wait at the barrier: safe
        for (LatencyHistogram& h : o.hist) h = LatencyHistogram{};
    }
    m.reclaim0 = r.domain.stats();
    m.core0 = r.stack->stats();
    const std::uint64_t ops0 = r.ops();
    for (int rep = 0; rep < reps; ++rep) {
        const Window w = window(r, seconds / reps, trace, parent);
        m.rep_mops.push_back(w.mops);
        m.rep_lat.push_back(w.lat);
        m.rep_rss_mb.push_back(w.rss_mb);
    }
    m.ops = r.ops() - ops0;
    m.reclaim1 = r.domain.stats();
    m.core1 = r.stack->stats();
    return m;
}

// Stop the workers, drain the stack and check conservation into `res`.
Teardown tear_down(Rig& r, RunResult& res, SpanBuffer* trace,
                   std::uint64_t parent) {
    Teardown t;
    r.exit = true;
    r.pool->sync();
    const std::uint64_t t0 = now_ns();
    r.pool->join();
    const std::uint64_t t1 = now_ns();
    on_pool_thread([&r] {
        while (const auto v = r.stack->pop()) r.main_ledger.removed(*v);
    });
    const std::uint64_t t2 = now_ns();

    Ledger all = r.main_ledger;
    std::vector<std::uint64_t> pushed{r.prefilled};
    for (const WorkerOut& o : r.outs) {
        all.merge(o.ledger);
        pushed.push_back(o.pushes);
        res.attempted += o.ops;
        res.failed += o.empty;
    }
    for (std::string& v : all.verify(pushed)) {
        res.violation(std::string(r.spec.name) + ": " + v);
    }
    r.domain.drain_all();
    const std::uint64_t t3 = now_ns();
    t.join_ms = static_cast<double>(t1 - t0) / 1e6;
    t.drain_ms = static_cast<double>(t3 - t2) / 1e6;
    if (trace != nullptr) {
        const std::uint64_t id = trace->reserve_id();
        trace->add("exec.join", t0, t1, id);
        trace->add("core.drain", t1, t2, id);
        trace->add("reclaim.drain", t2, t3, id);
        trace->add("teardown", t0, t3, parent, 0, id);
    }
    return t;
}

// The measured rigs are the process's first set-ups, so their memory
// carries no leftovers of discarded ones. setup_s is the median over them
// and the set-ups timed after them, kSetups in all.
void time_more_setups(const ClosedSpec& spec, const sec::Config& cfg,
                      std::uint64_t seed, std::vector<SetupTimes>& times,
                      SpanBuffer* trace, std::uint64_t parent) {
    while (times.size() < static_cast<std::size_t>(kSetups)) {
        times.emplace_back();
        auto rig = set_up(spec, cfg, seed, times.back(), trace, parent);
        rig->exit = true;
        rig->pool->sync();
        rig->pool->join();
    }
}

void print_config(const ClosedSpec& spec, const sec::Config& cfg) {
    std::printf(
        "workload %s: closed loop, %u workers pinned compact, %u%% push / "
        "%u%% pop / %u%% peek\n"
        "  SecStack<u64, EpochDomain>: aggregators=%zu max_threads=%zu "
        "backoff_ns=%llu (effective_stack_config, threads=%u)\n",
        spec.name, spec.workers, spec.push_pct, spec.pop_pct,
        100 - spec.push_pct - spec.pop_pct, cfg.num_aggregators,
        cfg.max_threads,
        static_cast<unsigned long long>(cfg.freezer_backoff_ns),
        spec.workers);
}

RunResult run_untraced(const ClosedSpec& spec, const sec::Config& cfg,
                       const RunOptions& opts) {
    RunResult res;
    std::vector<SetupTimes> setups;
    Measured m;
    std::vector<double> rig_rss;  // each rig's peak
    for (int k = 0; k < kRigs; ++k) {
        setups.emplace_back();
        auto rig = set_up(spec, cfg, opts.seed, setups.back(), nullptr, 0);
        const Measured mk = measure(*rig, opts.seconds / kRigs, kReps / kRigs,
                                    false, nullptr, 0);
        if (k == 0) {
            for (const WorkerOut& o : rig->outs) res.cpus.push_back(o.cpu);
        }
        tear_down(*rig, res, nullptr, 0);
        m.rep_mops.insert(m.rep_mops.end(), mk.rep_mops.begin(),
                          mk.rep_mops.end());
        m.rep_lat.insert(m.rep_lat.end(), mk.rep_lat.begin(), mk.rep_lat.end());
        rig_rss.push_back(
            *std::max_element(mk.rep_rss_mb.begin(), mk.rep_rss_mb.end()));
    }
    time_more_setups(spec, cfg, opts.seed, setups, nullptr, 0);

    std::vector<Percentiles> windows;
    std::vector<double> means;
    LatencyHistogram all;
    for (const LatencyHistogram& h : m.rep_lat) {
        windows.push_back(percentiles(h));
        means.push_back(h.mean_ns());
        all.merge_from(h);
    }
    const Percentiles per_window = median_over(windows);
    const Percentiles whole = percentiles(all);
    const std::string sampled = " of 1 call in " + std::to_string(kSampleEvery);
    const std::vector<double> setup_s = values_of(setups, &SetupTimes::total_s);
    res.set("throughput_mops", median(m.rep_mops), "Mops/s",
            reps_note(m.rep_mops));
    res.set("op_mean_ns", per_window.mean, "ns",
            reps_note(means) + " window means" + sampled);
    res.set("op_p90_ns", per_window.p90, "ns",
            "median of the windows' p90" + sampled + ", >= " +
                std::to_string(per_window.n) + " per window");
    res.set("setup_s", median(setup_s), "s", reps_note(setup_s));
    // A host stall that pauses one worker holds back EBR's epoch, the limbo
    // list grows meanwhile, and malloc keeps the memory for the rest of the
    // rig: stalls only ever raise a rig's peak (8.5 -> 13 MiB on update_t4).
    // The lowest rig is the one the host disturbed least.
    res.set("peak_rss_mb", *std::min_element(rig_rss.begin(), rig_rss.end()),
            "MiB", reps_note(rig_rss, "lowest of the set-ups' peaks:"));
    res.set("op_p50_ns", whole.p50, "ns",
            sample_note(whole) + "; not gated: SEC's calls are bimodal and "
                                 "the median sits between the modes");
    res.set("op_p99_ns", whole.p99, "ns", sample_note(whole) + "; not gated");
    res.set("failed_frac", failed_frac(res), "fraction",
            "failed=" + std::to_string(res.failed) +
                " attempted=" + std::to_string(res.attempted));
    return res;
}

RunResult run_traced(const ClosedSpec& spec, const sec::Config& cfg,
                     const RunOptions& opts) {
    RunResult res;
    SpanBuffer trace(0);
    const std::uint64_t run_id = trace.reserve_id();
    const std::uint64_t run_t0 = now_ns();

    // Untraced reference half: the shipped config, sampled timing only.
    std::vector<SetupTimes> setups(1);
    auto ref = set_up(spec, cfg, opts.seed, setups[0], &trace, run_id);
    const Measured mref =
        measure(*ref, opts.seconds / 2, kReps, false, &trace, run_id);
    tear_down(*ref, res, &trace, run_id);
    ref.reset();
    time_more_setups(spec, cfg, opts.seed, setups, &trace, run_id);

    // Traced half: every call timed, degree counters on.
    sec::Config traced_cfg = cfg;
    traced_cfg.collect_stats = true;
    SetupTimes st;
    auto rig = set_up(spec, traced_cfg, opts.seed, st, &trace, run_id);
    setups.push_back(st);
    const Measured m =
        measure(*rig, opts.seconds / 2, kReps, true, &trace, run_id);
    for (const WorkerOut& o : rig->outs) res.cpus.push_back(o.cpu);
    LatencyHistogram hist[3];
    unsigned pinned = 0;
    for (const WorkerOut& o : rig->outs) {
        for (int k = 0; k < 3; ++k) hist[k].merge_from(o.hist[k]);
        pinned += o.cpu >= 0 ? 1 : 0;
    }
    const std::uint64_t failed_before = res.failed;
    const Teardown td = tear_down(*rig, res, &trace, run_id);
    trace.add("run", run_t0, now_ns(), 0, 0, run_id);
    for (const WorkerOut& o : rig->outs) {
        res.spans.insert(res.spans.end(), o.spans.spans().begin(),
                         o.spans.spans().end());
    }
    res.spans.insert(res.spans.end(), trace.spans().begin(),
                     trace.spans().end());

    set_op_metrics(res, hist);
    set_core_metrics(res, m.core0, m.core1, res.failed - failed_before);
    set_reclaim_metrics(res, m.reclaim0, m.reclaim1, m.ops, td.drain_ms);
    set_exec_metrics(res, setups, td.join_ms, pinned);

    const double ref_mops = median(mref.rep_mops);
    const double traced_mops = median(m.rep_mops);
    res.set("trace.overhead_pct",
            ref_mops > 0 ? (1 - traced_mops / ref_mops) * 100 : 0, "%");

    std::printf("per-layer (traced; reference %.3f Mops/s untraced, %.3f "
                "traced):\n",
                ref_mops, traced_mops);
    return res;
}

RunResult run_closed(const ClosedSpec& spec, const RunOptions& opts) {
    // Configured as the registry's SEC: effective_stack_config sizes
    // max_threads to the run's thread bound (threads + 8).
    sec::bench::StackParams params;
    params.threads = spec.workers;
    const sec::Config cfg = sec::bench::effective_stack_config(params);
    print_config(spec, cfg);
    return opts.trace ? run_traced(spec, cfg, opts)
                      : run_untraced(spec, cfg, opts);
}

}  // namespace

RunResult run_update_t4(const RunOptions& opts) {
    static const ClosedSpec spec{"update_t4", 4, 50, 50};
    return run_closed(spec, opts);
}

RunResult run_mixed_t2(const RunOptions& opts) {
    static const ClosedSpec spec{"mixed_t2", 2, 25, 25};
    return run_closed(spec, opts);
}

}  // namespace perfbench
