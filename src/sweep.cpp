// sweep.cpp — SweepSpec parsing and the sweep engine behind fig4,
// ablation_backoff and `secbench --sweep` (workload/sweep.hpp).
#include "workload/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "workload/any_runner.hpp"

namespace sec::bench {
namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
    if (s.empty()) return false;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && ptr == s.data() + s.size();
}

// A sweep is a benchmark grid, not a data set: more points than this is a
// malformed spec, and bounding the expansion also caps the work the
// overflow-safe loops below can do.
constexpr std::size_t kMaxValuesPerKnob = 64;

// "lo", "lo:hi", or "lo:hi:step" into an inclusive value list. Without an
// explicit step, `agg` ranges step by 1 and `backoff` ranges double from
// the 64ns quantum (a 0 lower bound contributes the backoff-disabled
// point), so one range covers every power-of-two window. Every loop is
// bounded by kMaxValuesPerKnob and guarded against std::uint64_t
// wrap-around, so a hostile range errors out instead of hanging or
// exhausting memory.
bool expand_range(std::string_view field, bool geometric,
                  std::vector<std::uint64_t>& out) {
    const auto c1 = field.find(':');
    if (c1 == std::string_view::npos) {
        std::uint64_t v = 0;
        if (!parse_u64(field, v)) return false;
        out.push_back(v);
        return true;
    }
    const auto c2 = field.find(':', c1 + 1);
    std::uint64_t lo = 0, hi = 0, step = 0;
    if (!parse_u64(field.substr(0, c1), lo)) return false;
    const std::string_view hi_part =
        c2 == std::string_view::npos
            ? field.substr(c1 + 1)
            : field.substr(c1 + 1, c2 - c1 - 1);
    if (!parse_u64(hi_part, hi) || hi < lo) return false;
    if (c2 != std::string_view::npos) {
        if (!parse_u64(field.substr(c2 + 1), step) || step == 0) return false;
        for (std::uint64_t v = lo;; v += step) {
            if (out.size() >= kMaxValuesPerKnob) return false;
            out.push_back(v);
            if (hi - v < step) break;  // next value exceeds hi (or wraps)
        }
        return true;
    }
    if (!geometric) {
        if (hi - lo >= kMaxValuesPerKnob) return false;
        for (std::uint64_t v = lo; v <= hi; ++v) out.push_back(v);
        return true;
    }
    constexpr std::uint64_t kQuantum = 64;
    std::uint64_t v = lo;
    if (v == 0) {
        out.push_back(0);
        v = kQuantum;
    }
    while (v <= hi) {
        if (out.size() >= kMaxValuesPerKnob) return false;
        out.push_back(v);
        if (v > hi / 2) break;  // v * 2 would exceed hi (or wrap)
        v *= 2;
    }
    return true;
}

void set_error(std::string* error, std::string message) {
    if (error != nullptr) *error = std::move(message);
}

// A knob's field: one or more '+'-separated segments, each a value or a
// range ("0+64:256+4096"). Every segment expands through expand_range, then
// the union is sorted and deduped — a list like "4096+0:256+64" would
// otherwise inflate the cross-product with duplicate columns and emit the
// grid out of order (duplicate CSV rows downstream tooling then
// double-counts).
bool expand_field(std::string_view field, bool geometric,
                  std::vector<std::uint64_t>& out) {
    std::string_view rest = field;
    while (true) {
        const auto plus = rest.find('+');
        const std::string_view segment = rest.substr(0, plus);
        if (segment.empty() ||
            !expand_range(segment, geometric, out)) {
            return false;
        }
        if (plus == std::string_view::npos) break;
        rest = rest.substr(plus + 1);
    }
    if (out.size() > kMaxValuesPerKnob) return false;
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return !out.empty();
}

}  // namespace

std::optional<SweepSpec> SweepSpec::parse(std::string_view spec,
                                          std::string* error) {
    SweepSpec out;
    std::string_view rest = spec;
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string_view knob = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        if (knob.empty()) continue;
        const auto eq = knob.find('=');
        if (eq == std::string_view::npos) {
            set_error(error, "sweep: knob without '=': " + std::string(knob));
            return std::nullopt;
        }
        const std::string_view name = knob.substr(0, eq);
        const std::string_view field = knob.substr(eq + 1);
        std::vector<std::uint64_t> values;
        if (name == "agg") {
            if (!out.aggs.empty()) {
                set_error(error, "sweep: duplicate 'agg' knob");
                return std::nullopt;
            }
            if (!expand_field(field, /*geometric=*/false, values)) {
                set_error(error, "sweep: bad agg range: " + std::string(field));
                return std::nullopt;
            }
            for (std::uint64_t v : values) {
                if (v < 1 || v > kMaxAggregators) {
                    set_error(error,
                              "sweep: agg values must be in [1, " +
                                  std::to_string(kMaxAggregators) + "]");
                    return std::nullopt;
                }
                out.aggs.push_back(static_cast<std::size_t>(v));
            }
        } else if (name == "backoff") {
            if (!out.backoffs.empty()) {
                set_error(error, "sweep: duplicate 'backoff' knob");
                return std::nullopt;
            }
            if (!expand_field(field, /*geometric=*/true, values)) {
                set_error(error,
                          "sweep: bad backoff range: " + std::string(field));
                return std::nullopt;
            }
            for (std::uint64_t v : values) {
                // Config::freezer_backoff_ns's legal range (validate()
                // enforces the same bound on the direct-Config path).
                if (v > kMaxFreezerBackoffNs) {
                    set_error(error,
                              "sweep: backoff values must be < 2^48 ns");
                    return std::nullopt;
                }
            }
            out.backoffs = std::move(values);
        } else {
            set_error(error,
                      "sweep: unknown knob '" + std::string(name) +
                          "' (have: agg, backoff)");
            return std::nullopt;
        }
    }
    const Config defaults;
    if (out.aggs.empty()) out.aggs.push_back(defaults.num_aggregators);
    if (out.backoffs.empty()) {
        out.backoffs.push_back(defaults.freezer_backoff_ns);
    }
    return out;
}

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
