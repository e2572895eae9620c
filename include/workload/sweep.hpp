// workload/sweep.hpp — the SEC sweep engine: run_sweep measures a list of
// (column, aggregator count, freezer backoff) points over the thread grid.
// `fig4`, `ablation_backoff` and `sweep` are its point lists over the two
// axes below, so the paper's tuning surfaces (§6/Figure 4 and the §3.1
// backoff sweet spot) can be regenerated on any machine and fed back into
// static Configs (DESIGN.md §5). See REPRODUCING.md for the CSV schema
// (`sweep,<threads>,agg<A>_bo<B>,<mops>`).
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "workload/registry.hpp"

namespace sec::bench {

// The two SEC tuning axes: K aggregators, every legal count (Figure 4), and
// the freezer backoff window in ns, 0 disabling it (§3.1). `fig4` varies K
// at the default backoff, `ablation_backoff` the backoff at the default K,
// and `sweep` runs their cross-product.
inline constexpr std::size_t kAggregatorAxis[] = {1, 2, 3, 4, 5};
inline constexpr std::uint64_t kBackoffAxisNs[] = {0,   128,  256,
                                                   512, 1024, 4096};
static_assert(std::size(kAggregatorAxis) == kMaxAggregators);

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
