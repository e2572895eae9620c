// scenarios.cpp — the paper's experiments as registry-driven scenario
// functions. Each is a short composition of the shared ScenarioContext
// pipeline (selection, thread-grid series, Table/CSV emission);
// bench/secbench.cpp drives them from the command line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exec/topology.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "reclaim/reclaim.hpp"
#include "sec.hpp"
#include "workload/any_runner.hpp"
#include "workload/arrival.hpp"
#include "workload/histogram.hpp"
#include "workload/registry.hpp"
#include "workload/sweep.hpp"

namespace sec::bench {
namespace {

// Prefill proportional to expected pop volume so pop-heavy windows measure
// real pops rather than EMPTY returns (the paper's fixed 1000-node prefill
// drains within milliseconds; see REPRODUCING.md §1, "Prefill").
EnvConfig with_pop_prefill(EnvConfig env) {
    const std::size_t volume = static_cast<std::size_t>(
        25e6 * (static_cast<double>(env.duration_ms) / 1000.0) * 1.3);
    env.prefill = std::min<std::size_t>(
        std::max<std::size_t>(env.prefill, volume), 40'000'000);
    return env;
}

// ---- fig2: EXP1 — throughput vs thread count, 3 mixes, all algorithms ------

int fig2(const ScenarioContext& ctx) {
    for (const OpMix& mix : kStandardMixes) {
        Table table(std::string("fig2_") + std::string(mix.name),
                    ctx.columns());
        std::fprintf(stderr, "workload %s (%u%% updates)\n", mix.name.data(),
                     mix.update_pct());
        for (const AlgoSpec* a : ctx.algos) ctx.series(table, *a, mix);
        ctx.emit(table);
    }
    return 0;
}

// ---- queue: the FIFO matrix — fig2's op-mix grid over queue algorithms -----

int queue(const ScenarioContext& ctx) {
    // Run on the FIFO members of the current selection. When the caller left
    // the (all-lifo) Figure-2 default set in place — `secbench all`, plain
    // `secbench queue` — fall back to the queue trio; an explicitly
    // shape-mixed --algos set never gets this far (the driver rejects it).
    std::vector<const AlgoSpec*> fifo;
    for (const AlgoSpec* a : ctx.algos) {
        if (a->shape == ContainerShape::fifo) fifo.push_back(a);
    }
    if (fifo.empty()) {
        const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
        for (const char* name : {"SEC_Q", "MS", "FCQ"}) {
            if (const AlgoSpec* a = reg.find(name)) fifo.push_back(a);
        }
        std::fprintf(stderr,
                     "queue: no FIFO algorithms selected; using the default "
                     "trio (SEC_Q, MS, FCQ)\n");
    }
    ScenarioContext qctx = ctx;
    qctx.algos = fifo;
    for (const OpMix& mix : kStandardMixes) {
        Table table(std::string("queue_") + std::string(mix.name),
                    qctx.columns());
        std::fprintf(stderr, "workload %s (%u%% updates)\n", mix.name.data(),
                     mix.update_pct());
        for (const AlgoSpec* a : qctx.algos) qctx.series(table, *a, mix);
        qctx.emit(table);
    }
    return 0;
}

// ---- fig3: EXP2 — asymmetric push-only / pop-only workloads ----------------

int fig3(const ScenarioContext& ctx) {
    {
        Table table("fig3_push_only", ctx.columns());
        std::fprintf(stderr, "workload push-only\n");
        for (const AlgoSpec* a : ctx.algos) ctx.series(table, *a, kPushOnly);
        ctx.emit(table);
    }
    {
        const EnvConfig pop_env = with_pop_prefill(ctx.env);
        Table table("fig3_pop_only", ctx.columns());
        std::fprintf(stderr, "workload pop-only (prefill=%zu)\n",
                     pop_env.prefill);
        for (const AlgoSpec* a : ctx.algos) {
            ctx.series(table, *a, kPopOnly, pop_env);
        }
        ctx.emit(table);
    }
    return 0;
}

// ---- fig4: EXP3 — SEC self-comparison with 1..5 aggregators ----------------

int fig4(const ScenarioContext& ctx) {
    SweepPlan plan;
    plan.algo = AlgorithmRegistry::instance().find("SEC");
    for (const std::size_t a : kAggregatorAxis) {
        plan.points.push_back(
            {"SEC_Agg" + std::to_string(a), a, Config{}.freezer_backoff_ns});
    }
    const auto slice = [&plan](const ScenarioContext& c, std::string table,
                               const OpMix& mix, const char* label) {
        std::fprintf(stderr, "workload %s\n", label);
        plan.table = std::move(table);
        plan.mix = mix;
        (void)run_sweep(c, plan);
    };
    for (const OpMix& mix : kStandardMixes) {
        slice(ctx, "fig4_" + std::string(mix.name), mix, mix.name.data());
    }
    slice(ctx, "fig4_push_only", kPushOnly, "push-only");
    ScenarioContext pop_ctx = ctx;
    pop_ctx.env = with_pop_prefill(ctx.env);
    slice(pop_ctx, "fig4_pop_only", kPopOnly, "pop-only");
    return 0;
}

// ---- table1: EXP4 — SEC degree metrics -------------------------------------

struct DegreeRow {
    double batching = 0;
    double elim_pct = 0;
    double comb_pct = 0;
    double direct_pct = 0;
};

// Degrees average over the thread points that formed a batch; the direct
// share averages over every point, so a mix that never batched (every op
// landed its first spine CAS) reads 100% direct rather than blank.
DegreeRow table1_measure(const ScenarioContext& ctx, const AlgoSpec& sec_algo,
                         const OpMix& mix) {
    DegreeRow row;
    unsigned points = 0, batched_points = 0;
    for (unsigned t : ctx.env.threads) {
        Config cfg = effective_stack_config({.threads = t});
        cfg.collect_stats = true;
        StackParams params;
        params.threads = t;
        params.config = &cfg;
        AnyStack stack = sec_algo.make(params);

        RunConfig rcfg = ctx.run_config(t, mix);
        rcfg.runs = 1;
        (void)run_throughput_any(stack, rcfg);

        const StatsSnapshot s = stack.stats();
        if (s.direct_ops + s.batched_ops == 0) continue;
        row.direct_pct += s.direct_pct();
        ++points;
        std::fprintf(stderr,
                     "  %s t=%-4u direct=%.0f%% batch=%.1f elim=%.0f%% "
                     "comb=%.0f%%\n",
                     mix.name.data(), t, s.direct_pct(), s.batching_degree(),
                     s.elimination_pct(), s.combining_pct());
        if (s.batches == 0) continue;
        row.batching += s.batching_degree();
        row.elim_pct += s.elimination_pct();
        row.comb_pct += s.combining_pct();
        ++batched_points;
    }
    if (points > 0) row.direct_pct /= points;
    if (batched_points > 0) {
        row.batching /= batched_points;
        row.elim_pct /= batched_points;
        row.comb_pct /= batched_points;
    }
    return row;
}

int table1(const ScenarioContext& ctx) {
    const AlgoSpec& sec_algo = *AlgorithmRegistry::instance().find("SEC");
    DegreeRow rows[3];
    int i = 0;
    for (const OpMix& mix : kStandardMixes) {
        rows[i++] = table1_measure(ctx, sec_algo, mix);
    }

    std::printf("\n== Table 1: SEC degree metrics ==\n");
    std::printf("%-18s %10s %10s %10s\n", "Workload ->", "100% upd", "50% upd",
                "10% upd");
    std::printf("%-18s %9.0f%% %9.0f%% %9.0f%%\n", "%Direct",
                rows[0].direct_pct, rows[1].direct_pct, rows[2].direct_pct);
    std::printf("%-18s %10.1f %10.1f %10.1f\n", "Batching Degree",
                rows[0].batching, rows[1].batching, rows[2].batching);
    std::printf("%-18s %9.0f%% %9.0f%% %9.0f%%\n", "%Elimination",
                rows[0].elim_pct, rows[1].elim_pct, rows[2].elim_pct);
    std::printf("%-18s %9.0f%% %9.0f%% %9.0f%%\n", "%Combining",
                rows[0].comb_pct, rows[1].comb_pct, rows[2].comb_pct);
    for (i = 0; i < 3; ++i) {
        ctx.csv_row("table1", kStandardMixes[i].name, "direct_pct",
                    rows[i].direct_pct);
        ctx.csv_row("table1", kStandardMixes[i].name, "batching",
                    rows[i].batching);
        ctx.csv_row("table1", kStandardMixes[i].name, "elimination_pct",
                    rows[i].elim_pct);
        ctx.csv_row("table1", kStandardMixes[i].name, "combining_pct",
                    rows[i].comb_pct);
    }
    return 0;
}

// ---- latency: per-op latency percentiles (paper §1 fairness claim) ---------

int latency(const ScenarioContext& ctx) {
    std::printf("# columns: mean, p50, p99, p999 per-op latency, upd100 mix\n");
    for (unsigned t : ctx.env.threads) {
        for (const AlgoSpec* a : ctx.algos) {
            StackParams params;
            params.threads = t;
            AnyStack stack = a->make(params);
            RunConfig cfg = ctx.run_config(t, kUpdateHeavy);
            const LatencyHistogram merged = run_latency_any(stack, cfg);
            std::printf(
                "%-6s t=%-4u ops=%-10llu mean=%8.0fns p50=%8lluns "
                "p99=%8lluns p999=%9lluns\n",
                a->name.c_str(), t,
                static_cast<unsigned long long>(merged.total()),
                merged.mean_ns(),
                static_cast<unsigned long long>(merged.quantile_ns(0.50)),
                static_cast<unsigned long long>(merged.quantile_ns(0.99)),
                static_cast<unsigned long long>(merged.quantile_ns(0.999)));
            const std::string key = a->name + "@t" + std::to_string(t);
            ctx.csv_row("latency_upd100", key, "mean_ns", merged.mean_ns());
            ctx.csv_row("latency_upd100", key, "p50_ns",
                        static_cast<double>(merged.quantile_ns(0.50)));
            ctx.csv_row("latency_upd100", key, "p99_ns",
                        static_cast<double>(merged.quantile_ns(0.99)));
            ctx.csv_row("latency_upd100", key, "p999_ns",
                        static_cast<double>(merged.quantile_ns(0.999)));
        }
    }
    return 0;
}

// ---- reclamation: algo x reclaimer scheme-comparison matrix (paper §4) -----

// One churn run of `spec` over a fresh domain of `scheme`; reports what the
// amortised in-run path achieved, the limbo high-water mark, and the cost of
// draining the backlog once the workers are quiet.
void reclamation_cell(const ScenarioContext& ctx, const ReclaimerSpec& scheme,
                      const AlgoSpec& spec, unsigned t, std::uint64_t ops,
                      std::uint64_t& scheme_hwm) {
    reclaim::DomainHandle domain = scheme.make_domain();
    double mops = 0;
    reclaim::Stats before;
    double drain_us = 0;
    reclaim::Stats after;
    {
        StackParams params;
        params.threads = t;
        params.domain = &domain;
        AnyStack stack = spec.make(params);
        mops = run_churn_any(stack, t, ops, ctx.env.seed);
        // Snapshot BEFORE draining: what the amortised path achieved.
        before = domain.stats();
        const auto d0 = std::chrono::steady_clock::now();
        domain.drain_all();
        const auto d1 = std::chrono::steady_clock::now();
        drain_us =
            std::chrono::duration<double, std::micro>(d1 - d0).count();
        after = domain.stats();
    }
    scheme_hwm = std::max(scheme_hwm, before.limbo_hwm);

    const double freed_pct =
        before.retired ? 100.0 * static_cast<double>(before.freed) /
                             static_cast<double>(before.retired)
                       : 100.0;
    std::printf(
        "%-10s t=%-3u %7.2f Mops/s retired=%-9llu freed-in-run=%-9llu "
        "(%5.1f%%) limbo-hwm=%-8llu drain=%8.1fus limbo-after=%llu\n",
        spec.name.c_str(), t, mops,
        static_cast<unsigned long long>(before.retired),
        static_cast<unsigned long long>(before.freed), freed_pct,
        static_cast<unsigned long long>(before.limbo_hwm), drain_us,
        static_cast<unsigned long long>(after.in_limbo()));
    const std::string key = spec.name + "@t" + std::to_string(t);
    ctx.csv_row("reclamation", key, "retired",
                static_cast<double>(before.retired));
    // Historical column name for the default scheme's rows; the matrix rows
    // get the scheme-neutral name.
    ctx.csv_row("reclamation", key,
                scheme.name == "ebr" ? "freed_by_epochs" : "freed_in_run",
                static_cast<double>(before.freed));
    ctx.csv_row("reclamation", key, "limbo_at_quiesce",
                static_cast<double>(before.in_limbo()));
    ctx.csv_row("reclamation", key, "limbo_hwm",
                static_cast<double>(before.limbo_hwm));
    ctx.csv_row("reclamation", key, "drain_us", drain_us);
    ctx.csv_row("reclamation", key, "limbo_after_drain",
                static_cast<double>(after.in_limbo()));
    ctx.csv_row("reclamation", key, "churn_mops", mops);
}

int reclamation(const ScenarioContext& ctx) {
    const std::uint64_t ops =
        static_cast<std::uint64_t>(ctx.env.duration_ms) * 2000;
    std::printf(
        "# balanced push/pop churn per reclamation scheme; 'freed-in-run' is\n"
        "# reclamation DURING the run (amortised advancement / scan batches),\n"
        "# 'limbo-hwm' the peak unreclaimed backlog, sampled at each scan\n"
        "# (DESIGN §4), 'drain' the cost of drain_all() once the workers\n"
        "# are quiet (a no-op for 'leak')\n");
    const std::vector<unsigned> grid =
        ctx.smoke ? std::vector<unsigned>{2u} : std::vector<unsigned>{4u, 16u};
    // The selected algorithms' families, deduped in legend order (selecting
    // "SEC@hp" measures the SEC family across every scheme).
    std::vector<std::string> bases;
    for (const AlgoSpec* a : ctx.algos) {
        if (std::find(bases.begin(), bases.end(), a->base) == bases.end()) {
            bases.push_back(a->base);
        }
    }
    auto& algo_reg = AlgorithmRegistry::instance();
    for (const ReclaimerSpec* scheme : ReclaimerRegistry::instance().all()) {
        std::fprintf(stderr, "scheme %s — %s\n", scheme->name.c_str(),
                     scheme->description.c_str());
        std::uint64_t scheme_hwm = 0;
        unsigned cells = 0;
        for (const std::string& base : bases) {
            const AlgoSpec* spec = algo_reg.find_variant(base, scheme->name);
            if (spec == nullptr || !spec->supports_domain) continue;
            for (unsigned t : grid) {
                reclamation_cell(ctx, *scheme, *spec, t, ops, scheme_hwm);
                ++cells;
            }
        }
        if (cells > 0) {
            std::printf("# scheme %-5s limbo high-water max=%llu over %u runs\n",
                        scheme->name.c_str(),
                        static_cast<unsigned long long>(scheme_hwm), cells);
            ctx.csv_row("reclamation_summary", scheme->name, "limbo_hwm_max",
                        static_cast<double>(scheme_hwm));
        }
    }
    return 0;
}

// ---- sweep: (agg x backoff) tuning-surface cross-product (DESIGN.md §5) ----

int sweep(const ScenarioContext& ctx) {
    // Sweep the SEC family: the variant from the current selection when one
    // was selected (so `--algos SEC@hp` sweeps SEC@hp), plain SEC otherwise.
    SweepPlan plan;
    plan.table = "sweep";
    plan.algo = AlgorithmRegistry::instance().find("SEC");
    for (const AlgoSpec* a : ctx.algos) {
        if (a->base == "SEC") {
            plan.algo = a;
            break;
        }
    }
    for (const std::size_t aggs : kAggregatorAxis) {
        for (const std::uint64_t backoff : kBackoffAxisNs) {
            plan.points.push_back({"agg" + std::to_string(aggs) + "_bo" +
                                       std::to_string(backoff),
                                   aggs, backoff});
        }
    }
    std::fprintf(stderr,
                 "sweep: %zu (agg x backoff) points x %zu thread counts, "
                 "algorithm %s, upd100 mix\n",
                 plan.points.size(), ctx.env.threads.size(),
                 plan.algo->name.c_str());
    const Table table = run_sweep(ctx, plan);
    // The argmax per thread count (the first column wins a tie), so
    // README's "choosing num_aggregators" guidance can cite real output.
    std::map<unsigned, std::pair<std::string, double>> best;
    table.for_each_cell([&best](unsigned t, const std::string& column,
                                double mops) {
        const auto [it, fresh] = best.try_emplace(t, column, mops);
        if (!fresh && mops > it->second.second) it->second = {column, mops};
    });
    for (const unsigned t : ctx.env.threads) {
        const auto& [column, mops] = best[t];
        std::printf("# sweep best @ t=%-4u %s (%.2f Mops/s)\n", t,
                    column.c_str(), mops);
        ctx.csv_row("sweep_best", std::to_string(t), column, mops);
    }
    return 0;
}

// ---- ablation_backoff: freezer backoff window sweep (DESIGN.md §6) ---------

int ablation_backoff(const ScenarioContext& ctx) {
    SweepPlan plan;
    plan.table = "ablation_freezer_backoff_upd100";
    plan.algo = AlgorithmRegistry::instance().find("SEC");
    plan.collect_stats = true;
    for (const std::uint64_t w : kBackoffAxisNs) {
        plan.points.push_back(
            {"bo" + std::to_string(w), Config{}.num_aggregators, w});
    }
    (void)run_sweep(ctx, plan);
    return 0;
}

// ---- net_service: open-loop service over loopback TCP (DESIGN.md §11) ----

// A SecServer per algorithm (its event loop draining readiness batches into
// the structure) and the loopback client replaying Poisson or bursty
// schedules over N real TCP connections, each reply charged against its
// scheduled arrival. Grid value = connections. With --port set, the client
// targets an already-running secserve instead (a second process; single
// column "remote" because the remote process, not the local selection,
// fixes the algorithm). Exits 1 when any scheduled request lost its reply,
// or when an in-process server's counters disagree with each other or with
// the replies the client read — CI's net-smoke job leans on that.
int net_service(const ScenarioContext& ctx) {
    // A mislabelled arrival process would corrupt every row it produces.
    const auto arrival =
        parse_arrival(ctx.arrival.empty() ? "poisson" : ctx.arrival);
    if (!arrival) {
        std::fprintf(stderr,
                     "secbench: unknown arrival process '%s' (poisson, "
                     "burst)\n",
                     ctx.arrival.c_str());
        return 2;
    }
    const double load =
        ctx.load_kops > 0 ? ctx.load_kops : (ctx.smoke ? 2.0 : 20.0);
    const bool remote = ctx.env.port != 0;

    std::printf(
        "# open-loop service over loopback TCP at %.1f Kops/s offered load, "
        "%s arrivals;\n"
        "# sojourn = reply - SCHEDULED arrival (CO-free), rtt = reply - "
        "send; grid value = connections\n",
        load, std::string(arrival_name(*arrival)).c_str());
    if (remote) {
        std::printf("# remote server at 127.0.0.1:%u (algorithm fixed by "
                    "that process)\n",
                    ctx.env.port);
    }

    const std::vector<std::string> cols =
        remote ? std::vector<std::string>{"remote"} : ctx.columns();
    Table kops_table("net_service_kops", cols, "Kops/s");
    Table p99_table("net_service_p99_us", cols, "us");
    int rc = 0;
    for (unsigned t : ctx.env.threads) {
        const unsigned series = remote ? 1u : static_cast<unsigned>(
                                                  ctx.algos.size());
        for (unsigned s = 0; s < series; ++s) {
            const AlgoSpec* a = remote ? nullptr : ctx.algos[s];
            const std::string column = remote ? "remote" : a->name;

            std::optional<net::SecServer> server;
            std::uint16_t port = static_cast<std::uint16_t>(ctx.env.port);
            if (!remote) {
                StackParams params;
                params.threads = 2;  // the event loop is the only stack user
                net::ServerConfig scfg;
                scfg.pin = topo::parse_pin_policy(ctx.env.pin)
                               .value_or(topo::PinPolicy::kNone);
                server.emplace(a->make(params), scfg);
                std::string err;
                if (!server->start(&err)) {
                    std::fprintf(stderr, "secbench: net_service: %s\n",
                                 err.c_str());
                    return 2;
                }
                port = server->port();
            }

            net::LoopbackClientConfig ccfg;
            ccfg.port = port;
            ccfg.connections = t;
            ccfg.load_kops = load;
            ccfg.duration = std::chrono::milliseconds(ctx.env.duration_ms);
            ccfg.arrival = *arrival;
            ccfg.seed = ctx.env.seed;
            const net::LoopbackClientResult r = run_loopback_client(ccfg);
            if (!r.ok) {
                std::fprintf(stderr, "secbench: net_service: %s\n",
                             r.error.c_str());
                return 2;
            }
            // The server's own accounting, read after stop() joined its
            // loop: each request it applied was a push, a pop, an empty pop
            // or a STATS, and each got the one reply the client read. A
            // remote server's counters live in its own process.
            std::optional<net::ServerStats> st;
            if (server) {
                server->stop();
                st = server->stats();
                if (st->requests !=
                        st->pushes + st->pops + st->empties + st->stats ||
                    st->requests != r.replies) {
                    std::fprintf(
                        stderr,
                        "secbench: net_service: server applied %llu "
                        "requests as %llu pushes + %llu pops + %llu "
                        "empties + %llu stats; client read %llu replies "
                        "(%s, conns=%u)\n",
                        static_cast<unsigned long long>(st->requests),
                        static_cast<unsigned long long>(st->pushes),
                        static_cast<unsigned long long>(st->pops),
                        static_cast<unsigned long long>(st->empties),
                        static_cast<unsigned long long>(st->stats),
                        static_cast<unsigned long long>(r.replies),
                        column.c_str(), t);
                    rc = 1;
                }
            }

            const double p50_us = r.sojourn.quantile_ns(0.50) / 1000.0;
            const double p99_us = r.sojourn.quantile_ns(0.99) / 1000.0;
            const double p999_us = r.sojourn.quantile_ns(0.999) / 1000.0;
            const double rtt_p99_us = r.rtt.quantile_ns(0.99) / 1000.0;
            std::printf(
                "NET %-10s conns=%-3u offered=%8.2f achieved=%8.2f Kops/s "
                "replies=%llu/%llu lost=%llu sojourn p50=%9.1fus "
                "p99=%9.1fus p999=%9.1fus | rtt p99=%9.1fus\n",
                column.c_str(), t, r.offered_kops, r.achieved_kops,
                static_cast<unsigned long long>(r.replies),
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.lost), p50_us, p99_us,
                p999_us, rtt_p99_us);
            if (r.lost > 0) {
                std::fprintf(stderr,
                             "secbench: net_service: %llu replies LOST "
                             "(%s, conns=%u)\n",
                             static_cast<unsigned long long>(r.lost),
                             column.c_str(), t);
                rc = 1;
            }
            kops_table.add(t, column, r.achieved_kops);
            p99_table.add(t, column, p99_us);
            const std::string key = column + "@c" + std::to_string(t);
            ctx.csv_row("net_service", key, "offered_kops", r.offered_kops);
            ctx.csv_row("net_service", key, "achieved_kops",
                        r.achieved_kops);
            ctx.csv_row("net_service", key, "replies",
                        static_cast<double>(r.replies));
            ctx.csv_row("net_service", key, "lost",
                        static_cast<double>(r.lost));
            ctx.csv_row("net_service", key, "sojourn_p50_us", p50_us);
            ctx.csv_row("net_service", key, "sojourn_p99_us", p99_us);
            ctx.csv_row("net_service", key, "sojourn_p999_us", p999_us);
            ctx.csv_row("net_service", key, "rtt_p99_us", rtt_p99_us);
            if (st) {
                ctx.csv_row("net_service", key, "server_batches",
                            static_cast<double>(st->batches));
                ctx.csv_row("net_service", key, "server_max_batch",
                            static_cast<double>(st->max_batch));
            }
        }
    }
    ctx.emit(kops_table);
    ctx.emit(p99_table);
    return rc;
}

// ---- micro: static vs type-erased hot-loop parity + per-op cost ------------

double timed_mops(std::uint64_t ops, const std::function<void()>& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    return us > 0 ? static_cast<double>(ops) / us : 0.0;
}

template <class S>
double static_mixed_mops(std::uint64_t ops, const PhaseArgs& args) {
    auto stack = make_stack<S>(tid_bound(1));
    phase_prefill(*stack, 64, args);
    return timed_mops(
        ops, [&] { (void)phase_mixed(*stack, args, OpCount{ops}); });
}

double erased_mixed_mops(const AlgoSpec& algo, std::uint64_t ops,
                         const PhaseArgs& args) {
    StackParams params;
    params.threads = 1;
    AnyStack stack = algo.make(params);
    stack.prefill(64, args);
    return timed_mops(ops, [&] { (void)stack.mixed_ops(ops, args); });
}

// The statically-dispatched twin of each registered algorithm (the erased
// path and this path share phase_mixed, so any gap beyond noise would
// mean virtual dispatch leaked into the per-op loop).
double static_twin_mops(std::string_view name, std::uint64_t ops,
                        const PhaseArgs& args) {
    if (name == "CC") return static_mixed_mops<CcStack<Value>>(ops, args);
    if (name == "EB") return static_mixed_mops<EbStack<Value>>(ops, args);
    if (name == "FC") return static_mixed_mops<FcStack<Value>>(ops, args);
    if (name == "SEC") return static_mixed_mops<SecStack<Value>>(ops, args);
    if (name == "TRB") return static_mixed_mops<TreiberStack<Value>>(ops, args);
    if (name == "TSI") return static_mixed_mops<TsiStack<Value>>(ops, args);
    return -1.0;
}

int micro(const ScenarioContext& ctx) {
    const std::uint64_t ops = std::max<std::uint64_t>(
        20'000, static_cast<std::uint64_t>(ctx.env.duration_ms) * 2000);
    std::printf(
        "# single-thread mixed-op cost over %llu ops; 'static' calls\n"
        "# phase_mixed<S> directly, 'erased' runs the same loop behind\n"
        "# AnyStack's one-virtual-call phase boundary — the two must agree\n"
        "# within noise. ns/op = 1000 / Mops (the hot-path codegen pass's\n"
        "# per-op instruction-budget view, DESIGN.md §10)\n",
        static_cast<unsigned long long>(ops));
    // Mops/s -> ns per operation; the reciprocal view the codegen pass
    // budgets against (0 when the window was too small to time).
    const auto ns_per_op = [](double mops) {
        return mops > 0 ? 1000.0 / mops : 0.0;
    };
    PhaseArgs args;
    args.seed = 42;
    args.mix = kUpdateHeavy;
    for (const AlgoSpec* a : ctx.algos) {
        const double erased = erased_mixed_mops(*a, ops, args);
        const double stat = static_twin_mops(a->name, ops, args);
        if (stat >= 0) {
            const double delta =
                stat > 0 ? 100.0 * (erased - stat) / stat : 0.0;
            std::printf("MICRO %-6s static=%8.2f Mops/s (%7.1f ns/op) "
                        "erased=%8.2f Mops/s (%7.1f ns/op) delta=%+.1f%%\n",
                        a->name.c_str(), stat, ns_per_op(stat), erased,
                        ns_per_op(erased), delta);
            ctx.csv_row("micro_ops", a->name, "static", stat);
            ctx.csv_row("micro_ops", a->name, "static_ns", ns_per_op(stat));
        } else {
            std::printf("MICRO %-6s static=%8s erased=%8.2f Mops/s "
                        "(%7.1f ns/op)\n",
                        a->name.c_str(), "-", erased, ns_per_op(erased));
        }
        ctx.csv_row("micro_ops", a->name, "erased", erased);
        ctx.csv_row("micro_ops", a->name, "erased_ns", ns_per_op(erased));
    }
    return 0;
}

}  // namespace

namespace detail {

void register_builtin_scenarios(ScenarioRegistry& reg) {
    reg.add({"fig2", "EXP1 — throughput vs threads, 3 mixes, all algorithms",
             fig2});
    reg.add({"fig3", "EXP2 — push-only / pop-only asymmetric workloads",
             fig3});
    reg.add({"queue",
             "FIFO matrix — SEC_Q vs MS vs FCQ across the fig2 op-mix grid "
             "(DESIGN.md §12)",
             queue});
    reg.add({"fig4", "EXP3 — SEC self-comparison, 1..5 aggregators", fig4});
    reg.add({"table1", "EXP4 — SEC batching/elimination/combining degrees",
             table1});
    reg.add({"latency", "per-op latency percentiles (paper §1 fairness claim)",
             latency});
    reg.add({"reclamation",
             "algo x reclaimer matrix: throughput/limbo/drain per scheme (§4)",
             reclamation});
    reg.add({"sweep",
             "SEC tuning surface: the 5 x 6 (agg x backoff) cross-product",
             sweep});
    reg.add({"ablation_backoff", "freezer backoff window sweep (DESIGN.md §6)",
             ablation_backoff});
    reg.add({"net_service",
             "open-loop service over loopback TCP via sec::net "
             "(DESIGN.md §11)",
             net_service});
    reg.add({"micro",
             "static vs type-erased hot-loop parity + single-thread op cost "
             "(Mops + ns/op)",
             micro});
}

}  // namespace detail
}  // namespace sec::bench
