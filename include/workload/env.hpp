// workload/env.hpp — the run parameters every scenario reads, and the
// strict parsers the bench binaries read their flags with.
//
// EnvConfig holds the run defaults: a quick look of 200 ms x 1 run per data
// point over threads {2,4,8}, after the paper's prefill of 1000 nodes
// (which the fig3/fig4 pop-only series deepen).
// secbench rewrites it from its presets (--paper, --smoke) and flags
// before any scenario runs; nothing is read from the environment.
//
// Every parser is whole-value-or-nothing: input that doesn't match the
// grammar (trailing junk, signs, spaces, "abc") is rejected, never read as
// 0 or a truncated prefix. The binaries reject such a value with exit
// status 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sec::bench {

struct EnvConfig {
    std::vector<unsigned> threads{2, 4, 8};
    unsigned duration_ms = 200;
    unsigned runs = 1;
    std::size_t prefill = 1000;  // the paper's prefill
    std::uint64_t seed = 0;  // base for per-worker RNG seeds (0 = legacy)
    // sec::net target (--port). port 0 = "no external server":
    // net_service spawns its own on an ephemeral port.
    unsigned port = 0;
    // Placement policy name (--pin), pre-validated against
    // topo::parse_pin_policy. "" = "none" = unpinned.
    std::string pin{};
};

// Strict digits-only parse of an unsigned decimal. False on empty input,
// signs, spaces, trailing junk or overflow: "abc" must not read as 0 and
// "2OO" must not read as 2, which is what a bare strtoul gave.
bool parse_u64_strict(const char* v, std::uint64_t& out);

// Strict parse of a plain decimal number, `[0-9]+(\.[0-9]+)?` and nothing
// else: no spaces, signs, exponents, hex or inf/nan, all of which a bare
// strtod accepts.
bool parse_decimal_strict(const char* v, double& out);

// Whole-grid-or-nothing parse of a comma/space-separated thread grid. Every
// token must be a positive integer that fits `unsigned`; one bad token
// rejects the grid (empty result), because silently dropping the tail of
// "4,8,x16" runs a different experiment than the one asked for.
std::vector<unsigned> parse_grid(const char* csv);

// Clamp every entry of a thread grid to the library's live-thread bound
// (kMaxThreads minus head-room for the coordinator/main/gtest threads),
// warning on stderr per rewritten entry instead of silently editing the
// user's grid.
void clamp_thread_grid(std::vector<unsigned>& grid);

// Banner on stderr: bench name, hardware, and the effective EnvConfig, so
// every result log is self-describing; `paper` marks a --paper run.
void print_preamble(std::string_view bench_name, const EnvConfig& cfg,
                    bool paper);

}  // namespace sec::bench
