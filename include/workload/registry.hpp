// workload/registry.hpp — algorithms and scenarios as data.
//
// AlgorithmRegistry maps a legend name ("SEC", "TRB", ...) to a factory
// producing a type-erased AnyStack from {threads, optional Config, optional
// EBR domain}. ScenarioRegistry maps a scenario name ("fig2", "latency",
// ...) to a ~30-line function that composes the shared Table/CSV/selection
// pipeline in ScenarioContext. The secbench CLI is a thin layer over these
// two registries; adding an algorithm or an experiment means one
// registration, not ten edited drivers.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"
#include "core/config.hpp"
#include "core/op_mix.hpp"
#include "core/stack_concept.hpp"
#include "reclaim/reclaimer.hpp"
#include "workload/env.hpp"
#include "workload/reporter.hpp"
#include "workload/runner.hpp"

namespace sec::bench {

namespace json {
struct Snapshot;  // workload/bench_json.hpp
}

using Value = std::uint64_t;

// Thread-bound passed to stack constructors: the N workers plus the main
// thread (and a little slack for gtest-style environments).
inline std::size_t tid_bound(unsigned threads) {
    return std::min<std::size_t>(kMaxThreads, threads + 8);
}

// Everything an algorithm factory may need for one run. `config` overrides
// the default sec::Config for Config-built structures (SEC, SEC_Q) and is
// ignored by the others; `domain` plugs in an external reclamation domain
// where the structure supports one (AlgoSpec::supports_domain) — the handle
// must carry the scheme the algorithm variant was registered for, or the
// factory falls back to a private domain.
struct StackParams {
    unsigned threads = 1;
    const Config* config = nullptr;
    const reclaim::DomainHandle* domain = nullptr;
};

// A Config honouring StackParams: an explicit config wins; otherwise the
// default Config sized to the run's thread bound. Aggregators never exceed
// max_threads.
Config effective_stack_config(const StackParams& p);

struct AlgoSpec {
    std::string name;         // legend name ("SEC", "TRB@hp"), the Table column
    std::string description;  // one-liner for `secbench --list`
    int legend_rank = 0;      // paper legend order (Fig. 2)
    bool default_set = false;  // one of the six Figure-2 competitors
    bool supports_domain = false;
    std::function<AnyStack(const StackParams&)> make;
    // Removal order of the structure (kShape of the erased type). Printed by
    // `secbench --list`; the driver refuses shape-mixed `--algos` sets and
    // the `queue` scenario selects on it. Defaults to lifo so positional
    // registrations of the stack era stay valid.
    ContainerShape shape = ContainerShape::lifo;
    // Derived by AlgorithmRegistry::add from `name` ("BASE" or "BASE@scheme"):
    // the algorithm family and the reclamation scheme it is bound to ("" for
    // structures without a reclaimer, i.e. CC/FC/FCQ).
    std::string base{};
    std::string reclaim{};
};

class AlgorithmRegistry {
public:
    static AlgorithmRegistry& instance();

    // Open for extension: out-of-tree structures register here too. Specs
    // are stored behind stable pointers, so AlgoSpec* handed out earlier
    // survives later registrations.
    void add(AlgoSpec spec);

    const AlgoSpec* find(std::string_view name) const;
    // Resolve an algorithm family to its binding for a reclamation scheme.
    // The single home of the naming convention: the plain base name IS the
    // "ebr" binding; other schemes are registered as "BASE@scheme". Returns
    // nullptr when the combination does not exist (e.g. TSI@hp).
    const AlgoSpec* find_variant(std::string_view base,
                                 std::string_view scheme) const;
    // All registered algorithms / the six-competitor default set, both in
    // legend order.
    std::vector<const AlgoSpec*> all() const;
    std::vector<const AlgoSpec*> default_set() const;
    std::string names_csv() const;  // "CC, EB, ..." for error messages

private:
    AlgorithmRegistry();
    std::vector<std::unique_ptr<AlgoSpec>> specs_;
};

// A reclamation scheme as registry data: its name (the `@hp` of `SEC@hp`),
// a one-liner, and a factory for a type-erased owning domain the
// reclamation scenario hands to per-variant stack factories.
struct ReclaimerSpec {
    std::string name;         // scheme name: "ebr", "hp", "qsbr", "leak"
    std::string description;  // one-liner for `secbench --list`
    std::function<reclaim::DomainHandle()> make_domain;
};

class ReclaimerRegistry {
public:
    static ReclaimerRegistry& instance();
    // Stable-pointer storage, same contract as AlgorithmRegistry::add.
    void add(ReclaimerSpec spec);
    std::vector<const ReclaimerSpec*> all() const;

private:
    ReclaimerRegistry();
    std::vector<std::unique_ptr<ReclaimerSpec>> specs_;
};

// Shared per-scenario state plus the Table/CSV/selection pipeline every
// scenario composes.
struct ScenarioContext {
    EnvConfig env;
    std::vector<const AlgoSpec*> algos;  // selection, legend order
    std::FILE* csv = nullptr;            // optional CSV sink (secbench --csv)
    // Optional BENCH_*.json snapshot sink (secbench --json):
    // emit() feeds every Table cell into it, csv_row() the table-less
    // cells, so a snapshot is exactly what the run printed.
    json::Snapshot* json = nullptr;
    bool smoke = false;                  // tiny-budget mode (secbench --smoke)
    bool paper = false;  // --paper preset applied; the preamble says so
    // --load: offered load in Kops/s for the open-loop `net_service`
    // scenario (0 = the scenario's default).
    double load_kops = 0;
    // --arrival: "poisson" (default) or "burst" — the arrival process of
    // `net_service` (workload/arrival.hpp).
    std::string arrival{};

    // Column names of the selected algorithms.
    std::vector<std::string> columns() const;
    // RunConfig for one grid point from `e` (defaults to this->env).
    RunConfig run_config(unsigned threads, const OpMix& mix) const;
    RunConfig run_config(unsigned threads, const OpMix& mix,
                         const EnvConfig& e) const;
    // Sweep the thread grid of `e` for one algorithm into `table`.
    void series(Table& table, const AlgoSpec& algo, const OpMix& mix) const;
    void series(Table& table, const AlgoSpec& algo, const OpMix& mix,
                const EnvConfig& e) const;
    // Print the table and append its rows to the CSV sink, if any.
    void emit(const Table& table) const;
    // One `table,key,column,value` row, for scenarios whose results aren't
    // a Table (table1 / latency / reclamation / micro / ...): printed on
    // stdout as `CSV,table,key,column,value`, like emit()'s rows, and
    // written to the CSV and JSON sinks when present.
    void csv_row(std::string_view table, std::string_view key,
                 std::string_view column, double value) const;
};

struct ScenarioSpec {
    std::string name;   // CLI name, e.g. "fig2"
    std::string title;  // one-liner for `secbench --list`
    std::function<int(const ScenarioContext&)> run;
};

class ScenarioRegistry {
public:
    static ScenarioRegistry& instance();
    // Stable-pointer storage, same contract as AlgorithmRegistry::add.
    void add(ScenarioSpec spec);
    const ScenarioSpec* find(std::string_view name) const;
    std::vector<const ScenarioSpec*> all() const;

private:
    ScenarioRegistry();
    std::vector<std::unique_ptr<ScenarioSpec>> specs_;
};

// Run one registered scenario (preamble + body). Returns the scenario's
// exit code, or 2 for an unknown name (after listing the available set).
int run_scenario(std::string_view name, const ScenarioContext& ctx);

namespace detail {
// Defined in src/scenarios.cpp; called once from ScenarioRegistry's
// constructor so the scenario translation unit is linked into consumers of
// the registry (static-library registration would otherwise be dropped).
void register_builtin_scenarios(ScenarioRegistry& reg);
}  // namespace detail

}  // namespace sec::bench
