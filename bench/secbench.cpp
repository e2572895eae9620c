// secbench.cpp — the unified scenario driver: every experiment behind one
// CLI over the algorithm and scenario registries (workload/registry.hpp).
//
//   secbench --list
//   secbench fig2 --algos SEC,TRB --threads 1,4,16 --csv out.csv
//   secbench all --smoke
//
// Every flag is one row of kFlags: its value kind, its help line, and where
// its value goes. One loop parses every row, one message per kind rejects a
// bad value with exit status 2, and --help prints the same table. Presets
// apply before the explicit flags, in a fixed order: --paper, then
// --smoke.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "exec/topology.hpp"
#include "workload/arrival.hpp"
#include "workload/bench_json.hpp"
#include "workload/env.hpp"
#include "workload/registry.hpp"

namespace sb = sec::bench;

namespace {

// What the command line said. An empty optional, vector or null string
// means the flag was not given.
struct Args {
    std::vector<std::string> scenarios;  // the positional names
    std::vector<unsigned> threads;
    std::optional<std::uint64_t> duration_ms, runs, seed, port, repeats;
    std::optional<double> load;
    const char *algos = nullptr, *pin = nullptr, *arrival = nullptr,
               *csv = nullptr, *json = nullptr;
    bool smoke = false, paper = false, help = false, list = false;
};

// The kinds of flag value: one grammar and one rejection message each.
enum class Kind {
    kUnsigned,  // digits only, within [lo, hi]
    kDecimal,   // [0-9]+(.[0-9]+)? only, above 0
    kGrid,      // comma-separated positive integers (sb::parse_grid)
    kChoice,    // a name `valid` accepts; `meta` lists them
    kText,      // a path or a name, checked where it is used
    kSwitch,    // takes no value
};

// Where a flag's value goes: the Args member of its kind's type.
using Dest = std::variant<std::optional<std::uint64_t> Args::*,
                          std::optional<double> Args::*,
                          std::vector<unsigned> Args::*, const char* Args::*,
                          bool Args::*>;

struct Flag {
    const char* name;
    Kind kind;
    Dest dest;
    const char* meta;  // the value in --help (kChoice: the accepted names)
    const char* help;  // '\n' continues the line, indented
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool (*valid)(const char*) = nullptr;  // kChoice only
};

constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

bool valid_pin(const char* v) {
    return sec::topo::parse_pin_policy(v).has_value();
}
bool valid_arrival(const char* v) { return sb::parse_arrival(v).has_value(); }

const Flag kFlags[] = {
    {"--help", Kind::kSwitch, &Args::help, nullptr, "print this help (also -h)"},
    {"--list", Kind::kSwitch, &Args::list, nullptr,
     "print scenarios, algorithms and reclaimers"},
    {"--algos", Kind::kText, &Args::algos, "A,B,...",
     "algorithms, ALGO@scheme for a reclaimer\n(default: the six paper "
     "competitors)"},
    {"--threads", Kind::kGrid, &Args::threads, "1,4,16", "thread grid"},
    {"--duration-ms", Kind::kUnsigned, &Args::duration_ms, "N",
     "measured window per data point", 1, kMaxUnsigned},
    {"--runs", Kind::kUnsigned, &Args::runs, "N", "repetitions per data point",
     1, kMaxUnsigned},
    {"--seed", Kind::kUnsigned, &Args::seed, "N",
     "base seed of the per-worker op-mix RNGs", 0, kMaxU64},
    {"--pin", Kind::kChoice, &Args::pin, "none|compact|scatter|smt",
     "worker placement (best-effort; DESIGN.md §13)", 0, 0, valid_pin},
    {"--load", Kind::kDecimal, &Args::load, "KOPS",
     "'net_service' offered load"},
    {"--arrival", Kind::kChoice, &Args::arrival, "poisson|burst",
     "'net_service' arrival process", 0, 0, valid_arrival},
    {"--port", Kind::kUnsigned, &Args::port, "N",
     "'net_service' target: a secserve on\n127.0.0.1:N (0: in-process "
     "server)",
     0, 65535},
    {"--csv", Kind::kText, &Args::csv, "PATH",
     "also write table,key,column,value rows here"},
    {"--json", Kind::kText, &Args::json, "PATH",
     "write a BENCH_*.json snapshot (REPRODUCING §6)"},
    {"--repeats", Kind::kUnsigned, &Args::repeats, "N",
     "--json: each cell is the median of N runs\n(default 1)", 1, 1000},
    {"--smoke", Kind::kSwitch, &Args::smoke, nullptr,
     "tiny smoke preset (25 ms, 2 threads, 1 run)"},
    {"--paper", Kind::kSwitch, &Args::paper, nullptr,
     "the paper's 5 s x 5-run methodology"},
};

int print_help(std::FILE* out) {
    std::fprintf(out,
                 "usage:\n"
                 "  secbench --list\n"
                 "  secbench <scenario>... [options]\n"
                 "  secbench all [options]\n"
                 "options:\n");
    for (const Flag& f : kFlags) {
        std::string lead = f.name;
        if (f.meta != nullptr) lead = lead + ' ' + f.meta;
        std::fprintf(out, "  %-30s ", lead.c_str());
        for (const char* c = f.help; *c != '\0'; ++c) {
            std::fputc(*c, out);
            if (*c == '\n') std::fprintf(out, "  %-30s ", "");
        }
        std::fputc('\n', out);
    }
    return out == stderr ? 2 : 0;
}

const Flag* find_flag(std::string_view name) {
    if (name == "-h") name = "--help";
    for (const Flag& f : kFlags) {
        if (name == f.name) return &f;
    }
    return nullptr;
}

template <class T>
T& member(Args& a, const Flag& f) {
    return a.*std::get<T Args::*>(f.dest);
}

// Parse `value` by the flag's kind into its Args member; false when the
// value breaks the kind's grammar or range.
bool store(const Flag& f, const char* value, Args& a) {
    switch (f.kind) {
        case Kind::kUnsigned: {
            std::uint64_t n = 0;
            if (!sb::parse_u64_strict(value, n) || n < f.lo || n > f.hi) {
                return false;
            }
            member<std::optional<std::uint64_t>>(a, f) = n;
            return true;
        }
        case Kind::kDecimal: {
            double d = 0;
            if (!sb::parse_decimal_strict(value, d) || d == 0) return false;
            member<std::optional<double>>(a, f) = d;
            return true;
        }
        case Kind::kGrid:
            member<std::vector<unsigned>>(a, f) = sb::parse_grid(value);
            return !member<std::vector<unsigned>>(a, f).empty();
        case Kind::kChoice:
            if (!f.valid(value)) return false;
            [[fallthrough]];
        case Kind::kText:
            member<const char*>(a, f) = value;
            return true;
        case Kind::kSwitch:
            member<bool>(a, f) = true;
            return true;
    }
    return false;
}

// What a value of the flag's kind must look like: the one rejection
// message per kind.
std::string expected(const Flag& f) {
    switch (f.kind) {
        case Kind::kUnsigned:
            return "an integer in [" + std::to_string(f.lo) + ", " +
                   std::to_string(f.hi) + "]";
        case Kind::kDecimal:
            return "a plain decimal above 0, like 12 or 2.5";
        case Kind::kGrid:
            return "a list of positive integers";
        default:
            return std::string("one of ") + f.meta;
    }
}

int list_registries() {
    std::printf("scenarios:\n");
    for (const sb::ScenarioSpec* s : sb::ScenarioRegistry::instance().all()) {
        std::printf("  %-18s %s\n", s->name.c_str(), s->title.c_str());
    }
    std::printf("algorithms:\n");
    for (const sb::AlgoSpec* a : sb::AlgorithmRegistry::instance().all()) {
        const std::string_view shape = sec::shape_name(a->shape);
        std::printf("  %-18s %-9s %s%s\n", a->name.c_str(),
                    std::string(shape).c_str(), a->description.c_str(),
                    a->default_set ? "" : " [extra]");
    }
    std::printf("reclaimers (ALGO@scheme):\n");
    for (const sb::ReclaimerSpec* r : sb::ReclaimerRegistry::instance().all()) {
        std::printf("  %-18s %s\n", r->name.c_str(), r->description.c_str());
    }
    return 0;
}

std::vector<std::string> split_csv(const char* arg) {
    std::vector<std::string> out;
    std::string cur;
    for (const char* p = arg; ; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
            if (*p == '\0') break;
        } else if (*p != ' ') {
            cur += *p;
        }
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const Flag* flag = find_flag(arg);
        if (flag == nullptr) {
            if (arg[0] == '-') {
                std::fprintf(stderr, "secbench: unknown option '%s'\n", arg);
                return print_help(stderr);
            }
            a.scenarios.push_back(arg);
            continue;
        }
        const char* value = nullptr;
        if (flag->kind != Kind::kSwitch) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "secbench: %s needs a value\n", arg);
                return 2;
            }
            value = argv[++i];
        }
        if (!store(*flag, value, a)) {
            std::fprintf(stderr, "secbench: %s '%s' must be %s\n", arg, value,
                         expected(*flag).c_str());
            return 2;
        }
        if (a.help) return print_help(stdout);
        if (a.list) return list_registries();
    }

    const bool run_all = std::erase(a.scenarios, "all") > 0;
    std::vector<std::string> scenarios = std::move(a.scenarios);
    if (!run_all && scenarios.empty()) return print_help(stderr);

    sb::ScenarioContext ctx;
    ctx.smoke = a.smoke;
    ctx.paper = a.paper;
    ctx.load_kops = a.load.value_or(0);
    if (a.arrival != nullptr) ctx.arrival = a.arrival;
    if (a.port) ctx.env.port = static_cast<unsigned>(*a.port);
    std::vector<std::string> algo_names;
    if (a.algos != nullptr) algo_names = split_csv(a.algos);

    if (a.paper) {
        // The paper's methodology: 5 s windows, 5 runs, grid up to twice
        // the machine's hardware threads.
        ctx.env.duration_ms = 5000;
        ctx.env.runs = 5;
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        ctx.env.threads.clear();
        for (unsigned t : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u, 64u, 96u,
                           128u}) {
            if (t <= 2 * hw) ctx.env.threads.push_back(t);
        }
    }
    if (a.smoke) {
        // Tiny budget: every scenario exercised, nothing measured seriously.
        ctx.env.duration_ms = 25;
        ctx.env.runs = 1;
        ctx.env.threads = {2};
    }
    if (a.pin != nullptr) ctx.env.pin = a.pin;
    if (a.duration_ms) {
        ctx.env.duration_ms = static_cast<unsigned>(*a.duration_ms);
    }
    if (a.runs) ctx.env.runs = static_cast<unsigned>(*a.runs);
    if (a.seed) ctx.env.seed = *a.seed;
    if (!a.threads.empty()) {
        // A warned clamp to the live-thread bound, not a silent rewrite.
        sb::clamp_thread_grid(a.threads);
        ctx.env.threads = a.threads;
    }

    auto& algo_reg = sb::AlgorithmRegistry::instance();
    if (algo_names.empty()) {
        ctx.algos = algo_reg.default_set();
    } else {
        for (const std::string& name : algo_names) {
            const sb::AlgoSpec* spec = algo_reg.find(name);
            if (spec == nullptr) {
                std::fprintf(stderr,
                             "secbench: unknown algorithm '%s'; available: %s\n",
                             name.c_str(), algo_reg.names_csv().c_str());
                return 2;
            }
            ctx.algos.push_back(spec);
        }
    }

    // A shape-mixed selection benchmarks apples against oranges — a LIFO
    // and a FIFO structure do different work per operation — so refuse it
    // loudly instead of printing a table that invites the comparison.
    {
        std::string lifo_names, fifo_names;
        for (const sb::AlgoSpec* spec : ctx.algos) {
            std::string* bucket = spec->shape == sec::ContainerShape::lifo
                                      ? &lifo_names
                                      : &fifo_names;
            if (!bucket->empty()) *bucket += ',';
            *bucket += spec->name;
        }
        if (!lifo_names.empty() && !fifo_names.empty()) {
            std::fprintf(stderr,
                         "secbench: --algos mixes shapes within one scenario "
                         "run: lifo {%s} vs fifo {%s}. A cross-shape table "
                         "is apples against oranges — pick one shape per "
                         "invocation (see `secbench --list`)\n",
                         lifo_names.c_str(), fifo_names.c_str());
            return 2;
        }
    }

    std::FILE* csv = nullptr;
    if (a.csv != nullptr) {
        csv = std::fopen(a.csv, "w");
        if (csv == nullptr) {
            std::fprintf(stderr, "secbench: cannot open '%s' for writing\n",
                         a.csv);
            return 2;
        }
        sb::Table::write_csv_header(csv);
        ctx.csv = csv;
    }

    if (run_all) {
        scenarios.clear();
        for (const sb::ScenarioSpec* s : sb::ScenarioRegistry::instance().all()) {
            scenarios.push_back(s->name);
        }
    }

    // Snapshot runs: repeat the whole scenario list --repeats times, each
    // into its own cell set, and keep per-cell medians (the noise guard).
    // Without --json there is nothing to median, so one pass.
    const bool want_snapshot = a.json != nullptr;
    const unsigned reps =
        want_snapshot ? static_cast<unsigned>(a.repeats.value_or(1)) : 1;
    if (!want_snapshot && a.repeats.value_or(1) > 1) {
        std::fprintf(stderr,
                     "secbench: --repeats has no effect without --json\n");
    }
    std::vector<sb::json::Snapshot> snaps;
    int rc = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        sb::json::Snapshot snap;
        ctx.json = want_snapshot ? &snap : nullptr;
        if (reps > 1) {
            std::fprintf(stderr, "# snapshot repeat %u/%u\n", rep + 1, reps);
        }
        for (const std::string& name : scenarios) {
            const int one = sb::run_scenario(name, ctx);
            if (one != 0 && rc == 0) rc = one;
        }
        if (want_snapshot) snaps.push_back(std::move(snap));
    }
    if (csv != nullptr) std::fclose(csv);

    if (want_snapshot) {
        sb::json::Snapshot current = sb::json::median_of(snaps);
        sb::json::Metadata meta = sb::json::build_metadata();
        auto join = [](const auto& items, auto&& name_of) {
            std::string out;
            for (const auto& item : items) {
                if (!out.empty()) out += ',';
                out += name_of(item);
            }
            return out;
        };
        meta.scenarios =
            join(scenarios, [](const std::string& s) { return s; });
        meta.algos =
            join(ctx.algos, [](const sb::AlgoSpec* a) { return a->name; });
        meta.smoke = ctx.smoke;
        meta.threads = ctx.env.threads;
        meta.duration_ms = ctx.env.duration_ms;
        meta.runs = ctx.env.runs;
        meta.repeats = reps;
        meta.prefill = ctx.env.prefill;
        meta.seed = ctx.env.seed;
        meta.pin = ctx.env.pin.empty() ? "none" : ctx.env.pin;
        current.meta = std::move(meta);

        std::string err;
        if (sb::json::write_snapshot(current, a.json, &err)) {
            std::fprintf(stderr, "# wrote %zu cells to %s\n",
                         current.cells.size(), a.json);
        } else {
            std::fprintf(stderr, "secbench: %s\n", err.c_str());
            if (rc == 0) rc = 2;
        }
    }
    return rc;
}
