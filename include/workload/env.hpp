// workload/env.hpp — bench scaling knobs from the environment.
//
// Defaults are sized for a quick smoke run; SEC_BENCH_PAPER=1 switches to
// the paper's full methodology (5 s windows x 5 runs over a wide thread
// grid). Individual knobs override either baseline:
//   SEC_BENCH_DURATION_MS  measured window per data point (ms)
//   SEC_BENCH_RUNS         repetitions per data point (mean is reported)
//   SEC_BENCH_THREADS      comma-separated thread grid, e.g. "1,4,16,64"
//   SEC_BENCH_PREFILL      nodes pushed before the window opens
//   SEC_BENCH_VALUE_RANGE  value universe for pushes
//   SEC_BENCH_SEED         base seed for per-worker op-mix RNGs (repro runs)
//   SEC_BENCH_PORT         sec::net TCP port (net_service / secserve);
//                          0 or unset = in-process server on an ephemeral
//                          port
//   SEC_BENCH_PIN          worker placement policy: "none" (default),
//                          "compact", "scatter", or "smt" — see
//                          exec/topology.hpp
//   SEC_BENCH_COUNTERS     0 disables per-worker perf_event counter
//                          groups (default on; counters silently yield no
//                          data where the syscall is denied anyway)
//
// Values that don't parse as clean unsigned integers (trailing junk, signs,
// "abc") are rejected with a stderr warning and the default kept — never
// silently read as 0 or a truncated prefix. secbench's numeric flags use the
// same parsers below, but reject a bad value with exit status 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sec::bench {

struct EnvConfig {
    std::vector<unsigned> threads;
    unsigned duration_ms = 200;
    unsigned runs = 1;
    std::size_t prefill = 1000;  // the paper's prefill
    std::size_t value_range = std::size_t{1} << 20;
    std::uint64_t seed = 0;  // base for per-worker RNG seeds (0 = legacy)
    // sec::net target (SEC_BENCH_PORT). port 0 = "no external server":
    // net_service spawns its own on an ephemeral port.
    unsigned port = 0;
    // Placement policy name (SEC_BENCH_PIN / --pin), pre-validated against
    // topo::parse_pin_policy. "" = "none" = unpinned.
    std::string pin{};
    // Per-worker perf_event counter groups (SEC_BENCH_COUNTERS). Default
    // on: the groups cost nothing where the syscall is denied and a few
    // rdpmc-backed reads where it isn't.
    bool counters = true;

    static EnvConfig load();
};

// Strict digits-only parse of an unsigned decimal. False on empty input,
// signs, spaces, trailing junk or overflow: "abc" must not read as 0 and
// "2OO" must not read as 2, which is what a bare strtoul gave.
bool parse_u64_strict(const char* v, std::uint64_t& out);

// Whole-grid-or-nothing parse of a comma/space-separated thread grid. Every
// token must be a positive integer that fits `unsigned`; one bad token
// rejects the grid (empty result), because silently dropping the tail of
// "4,8,x16" runs a different experiment than the one asked for.
std::vector<unsigned> parse_grid(const char* csv);

// Clamp every entry of a thread grid to the library's live-thread bound
// (kMaxThreads minus head-room for the coordinator/main/gtest threads),
// warning on stderr per rewritten entry instead of silently editing the
// user's grid. `origin` names the knob in the warning ("--threads" /
// "SEC_BENCH_THREADS"), so the CLI and environment paths stay in agreement
// by construction.
void clamp_thread_grid(std::vector<unsigned>& grid, const char* origin);

// Banner on stderr: bench name, hardware, and the effective EnvConfig, so
// every result log is self-describing. The one-argument form reloads the
// config from the environment; pass the effective config when CLI flags
// have overridden it (secbench).
void print_preamble(std::string_view bench_name);
void print_preamble(std::string_view bench_name, const EnvConfig& cfg);

}  // namespace sec::bench
