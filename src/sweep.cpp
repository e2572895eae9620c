// sweep.cpp — the sweep engine behind fig4, ablation_backoff and sweep
// (workload/sweep.hpp).
#include "workload/sweep.hpp"

#include <cstdio>

#include "workload/any_runner.hpp"

namespace sec::bench {

Table run_sweep(const ScenarioContext& ctx, const SweepPlan& plan) {
    std::vector<std::string> columns;
    for (const SweepPoint& p : plan.points) columns.push_back(p.column);
    Table table(plan.table, columns);
    for (const SweepPoint& p : plan.points) {
        for (const unsigned t : ctx.env.threads) {
            Config cfg = effective_stack_config({.threads = t});
            cfg.num_aggregators = p.aggs;
            cfg.freezer_backoff_ns = p.backoff_ns;
            cfg.collect_stats = plan.collect_stats;
            StackParams params;
            params.threads = t;
            params.config = &cfg;
            const RunConfig rcfg = ctx.run_config(t, plan.mix);
            double mops = 0;
            if (plan.collect_stats) {
                AnyStack stack = plan.algo->make(params);
                mops = run_throughput_any(stack, rcfg).mops;
                const StatsSnapshot s = stack.stats();
                std::fprintf(stderr,
                             "  %-10s t=%-4u %8.2f Mops/s batch=%.1f "
                             "elim=%.0f%%\n",
                             p.column.c_str(), t, mops, s.batching_degree(),
                             s.elimination_pct());
            } else {
                mops = run_throughput_any(
                           [&] { return plan.algo->make(params); }, rcfg)
                           .mops;
                progress_line(p.column, t, mops);
            }
            table.add(t, p.column, mops);
        }
    }
    ctx.emit(table);
    return table;
}

}  // namespace sec::bench
