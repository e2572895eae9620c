// workloads.hpp — the three perfbench workloads and the result each hands
// back to main.
//
//   update_t4   closed loop, 4 pinned workers, 50% push / 50% pop
//   mixed_t2    closed loop, 2 pinned workers, 25% push / 25% pop / 50% peek
//   served_tcp  open loop against an in-process SecServer over loopback TCP
//
// An untraced run measures the end-to-end metrics (and prints diagnostics
// beside them); a traced run (--trace 1) measures the per-layer ones and
// records spans. A workload reports only what it measured: run.py picks
// the metrics BENCHMARK.json names. README.md defines every metric and says
// which end-to-end metric each layer metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "reclaim/reclaimer.hpp"
#include "trace.hpp"
#include "workload/histogram.hpp"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;  // measured time; set-up and warm-up come on top
    bool trace = false;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;  // how it was taken: sample count, medians, ...
};

// What a workload hands back. Non-empty `violations` means an output check
// failed: main then exits nonzero without printing numbers.
struct RunResult {
    std::vector<std::string> violations;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;  // in the order they were set
    std::vector<Span> spans;      // traced runs only
    std::vector<int> cpus;        // where each benchmark thread was pinned

    void set(const std::string& name, double value, const std::string& unit,
             const std::string& note = {});
    void violation(std::string what) { violations.push_back(std::move(what)); }
};

RunResult run_update_t4(const RunOptions& opts);
RunResult run_mixed_t2(const RunOptions& opts);
RunResult run_served_tcp(const RunOptions& opts);

// ---- shared by the workloads (common.cpp, layers.cpp) ----------------------

// "<label> v1 v2 ...": the note of a figure taken over reps (by default
// their median).
std::string reps_note(const std::vector<double>& reps,
                      const char* label = "median of");
// failed / attempted (a diagnostic: 0 on every correct run).
double failed_frac(const RunResult& res);

struct SetupTimes {
    double total_s = 0;   // the whole set-up: what setup_s reports
    double start_ms = 0;  // WorkerPool construction to its first barrier
};
std::vector<double> values_of(const std::vector<SetupTimes>& times,
                              double SetupTimes::*field);

struct Teardown {
    double join_ms = 0;
    double drain_ms = 0;  // EpochDomain::drain_all()
};

// Per-layer metrics both kinds of workload report the same way.
// `by_op` is indexed by Op (push, pop, peek).
void set_op_metrics(RunResult& res, const sec::bench::LatencyHistogram* by_op);
void set_core_metrics(RunResult& res, const sec::StatsSnapshot& before,
                      const sec::StatsSnapshot& after,
                      std::uint64_t empty_pops);
void set_reclaim_metrics(RunResult& res, const sec::reclaim::Stats& before,
                         const sec::reclaim::Stats& after, std::uint64_t ops,
                         double drain_ms);
void set_exec_metrics(RunResult& res, const std::vector<SetupTimes>& setups,
                      double join_ms, unsigned pinned);

}  // namespace perfbench
