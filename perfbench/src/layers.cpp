// layers.cpp — per-layer metrics that every workload derives the same way
// (workloads.hpp).
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<double> values_of(const std::vector<SetupTimes>& times,
                              double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return v;
}

void set_op_metrics(RunResult& res, const sec::bench::LatencyHistogram* by_op) {
    const char* names[] = {"core.push_ns", "core.pop_ns", "core.peek_ns"};
    for (int k = 0; k < 3; ++k) {
        const std::string base = names[k];
        const Percentiles p = percentiles(by_op[k]);
        res.set(base + ".p50", p.p50, "ns");
        res.set(base + ".p99", p.p99, "ns");
        res.set(base + ".n", static_cast<double>(p.n), "count");
    }
}

void set_core_metrics(RunResult& res, const sec::StatsSnapshot& before,
                      const sec::StatsSnapshot& after,
                      std::uint64_t empty_pops) {
    sec::StatsSnapshot d;
    d.batches = after.batches - before.batches;
    d.batched_ops = after.batched_ops - before.batched_ops;
    d.eliminated_ops = after.eliminated_ops - before.eliminated_ops;
    d.combined_ops = after.combined_ops - before.combined_ops;
    res.set("core.batches", static_cast<double>(d.batches), "count");
    res.set("core.batch_degree", d.batching_degree(), "ops/batch");
    res.set("core.elim_frac", d.elimination_pct() / 100, "fraction");
    res.set("core.combine_frac", d.combining_pct() / 100, "fraction");
    res.set("core.empty_pops", static_cast<double>(empty_pops), "count");
}

void set_reclaim_metrics(RunResult& res, const sec::reclaim::Stats& before,
                         const sec::reclaim::Stats& after, std::uint64_t ops,
                         double drain_ms) {
    const double retired = static_cast<double>(after.retired - before.retired);
    const double freed = static_cast<double>(after.freed - before.freed);
    res.set("reclaim.retired_per_kop",
            ops ? retired / (static_cast<double>(ops) / 1000) : 0, "count");
    res.set("reclaim.freed_frac", retired > 0 ? freed / retired : 0,
            "fraction");
    res.set("reclaim.limbo_hwm", static_cast<double>(after.limbo_hwm), "count");
    res.set("reclaim.drain_ms", drain_ms, "ms");
}

void set_exec_metrics(RunResult& res, const std::vector<SetupTimes>& setups,
                      double join_ms, unsigned pinned) {
    res.set("exec.start_ms", median(values_of(setups, &SetupTimes::start_ms)),
            "ms");
    res.set("exec.join_ms", join_ms, "ms");
    res.set("exec.pinned", pinned, "count");
}

}  // namespace perfbench
