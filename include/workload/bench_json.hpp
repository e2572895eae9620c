// workload/bench_json.hpp — the BENCH_*.json snapshot record.
//
// A Snapshot is every result cell one secbench invocation produced (each
// Table cell plus the csv_row cells of the table-less scenarios) together
// with enough metadata to re-run the exact configuration: git sha, compiler
// and flags, core count, scenario list, the effective EnvConfig, and the
// repeat count. `secbench --json FILE --repeats N` writes one: the scenario
// list runs N times and each cell is the median of its N values.
//
// The snapshot is a record, not a gate. Numbers only compare within one
// host, close in time; `scripts/perf_ab.py` is the repository's perf
// referee (an interleaved same-host A/B over perfbench).
//
// File format: a single JSON object, schema "sec-bench-snapshot-v1"
// (REPRODUCING.md §6 documents it field by field). The writer is
// self-contained — no third-party JSON dependency.
#pragma once

#include <cstddef>
#include <cstdint>
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
    unsigned packages = 0;           // physical sockets
    unsigned cores_per_package = 0;  // physical cores per socket
    unsigned smt_width = 0;          // max SMT siblings per core (1 = none)
    unsigned l3_domains = 0;         // distinct L3 cache domains
    // Run half (secbench fills these from the effective configuration).
    std::string pin;        // placement policy name ("none" when unpinned)
    std::string scenarios;  // comma-joined scenario names, run order
    std::string algos;      // comma-joined algorithm selection
    bool smoke = false;
    std::vector<unsigned> threads;  // thread grid
    unsigned duration_ms = 0;
    unsigned runs = 0;
    unsigned repeats = 1;  // snapshot-level repetitions (median-of-N)
    std::size_t prefill = 0;
    std::uint64_t seed = 0;
};

struct Snapshot {
    Metadata meta;
    std::vector<Cell> cells;

    void add(std::string_view table, std::string_view key,
             std::string_view column, std::string_view unit, double value);
};

// The build half of the metadata, baked in at configure time
// (SEC_GIT_SHA / SEC_CXX_FLAGS / SEC_BUILD_TYPE / SEC_NATIVE_BUILD) plus
// the runtime core count and topology.
Metadata build_metadata();

// Write the snapshot to `path` as JSON: fixed key order, strings escaped,
// doubles in the shortest decimal that parses back to the same value. On
// failure returns false and, when `err` is non-null, stores a one-line
// reason.
bool write_snapshot(const Snapshot& snap, const std::string& path,
                    std::string* err = nullptr);

// Collapse repeated runs of one configuration into per-cell medians (the
// noise guard). Cell identity is (table, key, column); within one run a
// duplicated identity keeps its last value (Table::add semantics). Order
// and units follow first appearance; `meta` is taken from the first run.
Snapshot median_of(const std::vector<Snapshot>& runs);

}  // namespace sec::bench::json
