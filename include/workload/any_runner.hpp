// workload/any_runner.hpp — the closed-loop runners: timed-window
// throughput, per-op latency, and fixed-op churn, all over the type-erased
// AnyStack, so scenarios drive any registered algorithm without a template
// instantiation per call site. Virtual dispatch is per phase (see
// core/stack_concept.hpp), so each measured loop is the phase template
// instantiated against the concrete stack type.
#pragma once

#include <functional>

#include "core/stack_concept.hpp"
#include "workload/histogram.hpp"
#include "workload/runner.hpp"

namespace sec::bench {

using AnyStackFactory = std::function<AnyStack()>;

// Fresh structure per run (the usual throughput measurement).
RunResult run_throughput_any(const AnyStackFactory& make, const RunConfig& cfg);

// Caller-owned structure, kept alive across runs (e.g. to read degree stats
// afterwards — table1 / ablation scenarios).
RunResult run_throughput_any(AnyStack& stack, const RunConfig& cfg);

// Per-op latency over cfg.duration with a 50/50 push/pop mix unless cfg.mix
// says otherwise; returns the merged histogram (cfg.runs is ignored).
LatencyHistogram run_latency_any(AnyStack& stack, const RunConfig& cfg);

// Fixed-op balanced churn: `threads` workers each run `ops_per_thread`
// operations of a balanced push/pop mix, then join (the reclamation
// scenario's workload). Workers are seeded from `seed` + thread id; returns
// the aggregate throughput in Mops/s.
double run_churn_any(AnyStack& stack, unsigned threads,
                     std::uint64_t ops_per_thread, std::uint64_t seed = 0);

}  // namespace sec::bench
