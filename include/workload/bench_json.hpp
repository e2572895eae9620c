// workload/bench_json.hpp — persisted perf trajectory: BENCH_*.json
// snapshots and the baseline regression gate.
//
// A Snapshot is every result cell one secbench invocation produced (each
// Table cell plus the csv_row cells of the table-less scenarios) together
// with enough metadata to re-run the exact configuration: git sha, compiler
// and flags, core count, scenario list, the effective EnvConfig, and the
// repeat count. `secbench --json FILE` writes one; `secbench --baseline
// FILE` re-runs the pinned configuration the file records and compares
// per-cell.
//
// The compare is built for cross-machine baselines (a laptop-refreshed
// BENCH_smoke.json gated on a shared CI runner):
//   * median-of-N — the run is repeated `repeats` times and each cell's
//     median is compared, so one descheduled window doesn't fail the gate;
//   * scale normalization — the global hardware-speed shift (the median
//     current/baseline ratio over gated cells) is divided out before the
//     tolerance test, so "this runner is 2x slower" passes while "the
//     queue scenario alone got 2x slower" fails;
//   * direction awareness — only cells whose unit marks them
//     higher-is-better throughput ("Mops/s", "Kops/s") gate; latency and
//     diagnostic cells are reported but never fail the build.
// A gated cell regresses when its normalized delta falls strictly below
// -tolerance_pct, or when it vanished from the current run entirely.
//
// File format: a single JSON object, schema "sec-bench-snapshot-v1"
// (REPRODUCING.md §6 documents it field by field). The writer and the
// parser are self-contained — no third-party JSON dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace sec::bench::json {

// One result cell, in the same shape as a CSV row plus the owning table's
// unit ("" for csv_row cells, which carry their semantics in the column
// name).
struct Cell {
    std::string table;
    std::string key;
    std::string column;
    std::string unit;
    double value = 0;
};

struct Metadata {
    // Build half (build_metadata() fills these from compile definitions).
    std::string git_sha;     // configure-time HEAD, "unknown" outside git
    std::string compiler;    // "gcc 13.2.0" / "clang ..."
    std::string flags;       // effective CXX flags incl. build-type flags
    std::string build_type;  // CMAKE_BUILD_TYPE
    bool march_native = false;  // SEC_NATIVE build (-march=native)
    unsigned cores = 0;         // hardware_concurrency at run time
    // Topology half (build_metadata() fills these from Topology::system()).
    // All zero in snapshots written before the exec/topo layer existed —
    // the parser defaults them, and the compare skips zero baseline fields
    // so old snapshots never warn spuriously.
    unsigned packages = 0;           // physical sockets
    unsigned cores_per_package = 0;  // physical cores per socket
    unsigned smt_width = 0;          // max SMT siblings per core (1 = none)
    unsigned l3_domains = 0;         // distinct L3 cache domains
    // Run half (secbench fills these from the effective configuration).
    std::string pin;        // placement policy name ("none" when unpinned)
    std::string scenarios;  // comma-joined scenario names, run order
    std::string algos;      // comma-joined algorithm selection
    std::string reclaim;    // --reclaim scheme ("" = default bindings)
    bool smoke = false;
    std::vector<unsigned> threads;  // thread grid
    unsigned duration_ms = 0;
    unsigned runs = 0;
    unsigned repeats = 1;  // snapshot-level repetitions (median-of-N)
    std::size_t prefill = 0;
    std::size_t value_range = 0;
    std::uint64_t seed = 0;
};

struct Snapshot {
    Metadata meta;
    std::vector<Cell> cells;

    void add(std::string_view table, std::string_view key,
             std::string_view column, std::string_view unit, double value);
    // First cell matching (table, key, column), nullptr when absent.
    const Cell* find(std::string_view table, std::string_view key,
                     std::string_view column) const noexcept;
};

// The build half of the metadata, baked in at configure time
// (SEC_GIT_SHA / SEC_CXX_FLAGS / SEC_BUILD_TYPE / SEC_NATIVE_BUILD) plus
// the runtime core count.
Metadata build_metadata();

// Serialize / parse a snapshot. On failure both return false and, when
// `err` is non-null, store a one-line reason.
bool write_snapshot(const Snapshot& snap, const std::string& path,
                    std::string* err = nullptr);
bool read_snapshot(const std::string& path, Snapshot& out,
                   std::string* err = nullptr);

// Collapse repeated runs of one configuration into per-cell medians (the
// noise guard). Cell identity is (table, key, column); within one run a
// duplicated identity keeps its last value (Table::add semantics). Order
// and units follow first appearance; `meta` is taken from the first run.
Snapshot median_of(const std::vector<Snapshot>& runs);

// True for units naming a higher-is-better throughput cell ("Mops/s",
// "Kops/s" — anything containing "ops"); only such cells gate the compare.
bool gated_unit(std::string_view unit) noexcept;

struct CellDelta {
    Cell base;
    double current = 0;        // meaningless when `missing`
    bool missing = false;      // cell absent from the current snapshot
    bool gated = false;        // unit gates (throughput, higher-is-better)
    double raw_delta_pct = 0;  // 100 * (current - base) / base
    double norm_delta_pct = 0;  // raw delta after dividing out `scale`
    bool regressed = false;     // gated && (missing || norm < -tolerance)
};

struct CompareResult {
    double scale = 1.0;  // median current/base ratio over gated cells
    double tolerance_pct = 0;
    std::vector<CellDelta> cells;  // baseline order
    unsigned regressions = 0;      // gated cells that failed
    unsigned extra = 0;  // current-only cells (reported, never gated)

    bool ok() const noexcept { return regressions == 0; }
};

CompareResult compare(const Snapshot& baseline, const Snapshot& current,
                      double tolerance_pct);

// One-line description of how `current`'s topology differs from
// `baseline`'s (packages / cores-per-package / SMT width / L3 domains /
// pin policy), or "" when they agree. Baseline fields that are zero or
// empty (snapshots written before these fields existed) never mismatch.
// The compare WARNS on a non-empty result — a cross-machine baseline is
// by design comparable after scale normalization, but a topology shift is
// exactly the context a surprising per-cell delta needs.
std::string topology_mismatch(const Metadata& baseline,
                              const Metadata& current);

// Human-readable comparison report (secbench prints it to stdout; the CI
// log is the "loud" half of the loud-but-soft gate).
void print_compare(const CompareResult& result, std::FILE* out);

}  // namespace sec::bench::json
