// workload/sweep.hpp — the SEC sweep engine: run_sweep measures a list of
// (column, aggregator count, freezer backoff) points over the thread grid.
// `fig4`, `ablation_backoff` and the --sweep cross-product are its point
// lists, so the paper's tuning surfaces (§6/Figure 4 and the §3.1 backoff
// sweet spot) can be regenerated on any machine and fed back into static
// Configs (DESIGN.md §5).
//
//   secbench sweep --sweep agg=1:5,backoff=0:4096
//   secbench --sweep agg=1:2,backoff=0:256 --smoke --csv sweep.csv
//
// Spec grammar (comma-separated knobs, each a value, an inclusive range, or
// a stepped range):
//   agg=3            one value
//   agg=1:5          1,2,3,4,5          (unit step)
//   backoff=0:4096   0,64,128,...,4096  (geometric doubling from 64ns; a 0
//                                        lower bound contributes the
//                                        backoff-disabled point)
//   backoff=0:4096:1024   0,1024,2048,3072,4096  (explicit additive step)
//   agg=5+1:2             1,2,5  ('+' unions values/ranges; the union is
//                                 sorted and deduped, so overlapping
//                                 segments can never inflate the
//                                 cross-product or duplicate CSV rows)
// Omitted knobs pin to the Config default. See REPRODUCING.md for the CSV
// schema contract (`sweep,<threads>,agg<A>_bo<B>,<mops>`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/registry.hpp"

namespace sec::bench {

struct SweepSpec {
    std::vector<std::size_t> aggs;          // aggregator counts to sweep
    std::vector<std::uint64_t> backoffs;    // freezer backoff windows (ns)

    // Parse "agg=1:5,backoff=0:4096". Returns nullopt and sets `error` on a
    // malformed spec (unknown knob, empty/backwards range, agg outside
    // [1, kMaxAggregators]). Each knob's values come back sorted and
    // deduped, whatever the '+' segments looked like. Omitted knobs default
    // to the Config defaults.
    static std::optional<SweepSpec> parse(std::string_view spec,
                                          std::string* error = nullptr);

    std::size_t combinations() const noexcept {
        return aggs.size() * backoffs.size();
    }
};

// One column of a sweep: the SEC configuration it runs.
struct SweepPoint {
    std::string column;
    std::size_t aggs = 0;         // Config::num_aggregators
    std::uint64_t backoff_ns = 0;  // Config::freezer_backoff_ns
};

struct SweepPlan {
    std::string table;
    const AlgoSpec* algo = nullptr;  // SEC or one of its reclaimer variants
    OpMix mix = kUpdateHeavy;
    std::vector<SweepPoint> points;
    // Build each structure with Config::collect_stats, keep it across the
    // point's runs, and print its batching and elimination degrees.
    bool collect_stats = false;
};

// Run every point of `plan` at every thread count of ctx.env (points
// outer, threads inner), each configuration on ctx's run settings, and
// emit the table through ctx. Returns the table for callers that
// summarise it.
Table run_sweep(const ScenarioContext& ctx, const SweepPlan& plan);

}  // namespace sec::bench
