// registry.cpp — AlgorithmRegistry (the six stacks and the FIFO trio
// self-register here, plus the algo@reclaimer cross-product),
// ReclaimerRegistry (the four sec::reclaim schemes), ScenarioRegistry, and
// the shared scenario pipeline (ScenarioContext helpers, run_scenario).
#include "workload/registry.hpp"

#include <cstdio>
#include <type_traits>

#include "reclaim/reclaim.hpp"
#include "sec.hpp"
#include "workload/any_runner.hpp"
#include "workload/bench_json.hpp"

namespace sec::bench {
namespace {

// ---- algorithm factories ---------------------------------------------------

// Containers with no reclamation domain (CcStack/FcStack/FcQueue: combining
// designs reclaim through their combiner, so `domain` is ignored for them).
template <ConcurrentContainer S>
AnyStack make_plain_stack(const StackParams& p) {
    return erase_stack(make_stack<S>(tid_bound(p.threads)));
}

// Containers whose reclaimer is baked into S, sized by the run's effective
// Config when Config-built (SecStack, SecQueue) and by the thread bound
// otherwise; an external domain of the matching scheme is borrowed when the
// handle carries one.
template <ConcurrentContainer S>
AnyStack make_bound_stack(const StackParams& p) {
    using R = typename S::reclaimer_type;
    const auto sizing = [&p] {
        if constexpr (std::is_constructible_v<S, Config>) {
            return effective_stack_config(p);
        } else {
            return tid_bound(p.threads);
        }
    };
    if (p.domain != nullptr) {
        if (R* d = p.domain->get<R>()) {
            return erase_stack(std::make_unique<S>(sizing(), *d));
        }
    }
    return erase_stack(std::make_unique<S>(sizing()));
}

// One "BASE@scheme" spec per reclaimer-capable structure: the cross-product
// `--algos` and the reclamation scenario's matrix select from.
// TSI is blanket-only (see core/tsi_stack.hpp), so it has no @hp variant.
template <reclaim::Reclaimer R>
void register_reclaim_variants(AlgorithmRegistry& reg, int rank) {
    // Built with append rather than operator+ to dodge GCC 12's -Wrestrict
    // false positive on char* + std::string concatenation.
    auto variant = [](const char* base) {
        std::string s(base);
        s += '@';
        s += R::kName;
        return s;
    };
    auto desc = [](const char* base) {
        std::string s(base);
        s += " over the ";
        s += R::kName;
        s += " reclaimer";
        return s;
    };
    reg.add({variant("EB"), desc("EB"), rank + 0, false, true,
             make_bound_stack<EbStack<Value, R>>});
    reg.add({variant("SEC"), desc("SEC"), rank + 1, false, true,
             make_bound_stack<SecStack<Value, R>>});
    reg.add({variant("TRB"), desc("TRB"), rank + 2, false, true,
             make_bound_stack<TreiberStack<Value, R>>});
    if constexpr (R::kBlanketProtection) {
        reg.add({variant("TSI"), desc("TSI"), rank + 3, false, true,
                 make_bound_stack<TsiStack<Value, R>>});
    }
    reg.add({variant("SEC_Q"), desc("SEC_Q"), rank + 4, false, true,
             make_bound_stack<SecQueue<Value, R>>, ContainerShape::fifo});
    reg.add({variant("MS"), desc("MS"), rank + 5, false, true,
             make_bound_stack<MsQueue<Value, R>>, ContainerShape::fifo});
}

void register_builtin_algorithms(AlgorithmRegistry& reg) {
    // The paper's six — EBR-backed, names/columns unchanged.
    reg.add({"CC", "CC-Synch combining stack", 0, true, false,
             make_plain_stack<CcStack<Value>>});
    reg.add({"EB", "Treiber + elimination-backoff collision array", 1, true,
             true, make_bound_stack<EbStack<Value>>});
    reg.add({"FC", "flat-combining stack", 2, true, false,
             make_plain_stack<FcStack<Value>>});
    reg.add({"SEC", "sharded elimination-combining stack (the paper)", 3, true,
             true, make_bound_stack<SecStack<Value>>});
    reg.add({"TRB", "Treiber stack (single-CAS top)", 4, true, true,
             make_bound_stack<TreiberStack<Value>>});
    reg.add({"TSI", "timestamped stack (per-thread pools)", 5, true, true,
             make_bound_stack<TsiStack<Value>>});
    // The FIFO competitor trio (ROADMAP item 2): same registry, same
    // reclaim cross-product, selected by the `queue` scenario. Not in the
    // Figure-2 default set — that set is the paper's six stacks.
    reg.add({"SEC_Q",
             "sharded combining FIFO queue — SEC batching, no elimination",
             12, false, true, make_bound_stack<SecQueue<Value>>,
             ContainerShape::fifo});
    reg.add({"MS", "Michael-Scott queue (CAS per op on head/tail lines)", 13,
             false, true, make_bound_stack<MsQueue<Value>>,
             ContainerShape::fifo});
    reg.add({"FCQ", "flat-combining queue", 14, false, false,
             make_plain_stack<FcQueue<Value>>, ContainerShape::fifo});
    // The algo@reclaimer cross-product. The plain names above ARE the @ebr
    // bindings (no duplicate "@ebr" specs), so existing scenario keys and
    // CSV output are unchanged.
    register_reclaim_variants<reclaim::HazardDomain>(reg, 30);
    register_reclaim_variants<reclaim::QsbrDomain>(reg, 40);
    register_reclaim_variants<reclaim::LeakyDomain>(reg, 50);
}

void register_builtin_reclaimers(ReclaimerRegistry& reg) {
    reg.add({"ebr", "epoch-based (DEBRA-style) — the paper's §4 default",
             [] { return reclaim::DomainHandle::make<reclaim::EpochDomain>(); }});
    reg.add({"hp", "hazard pointers — per-thread slots, scan-and-free batches",
             [] { return reclaim::DomainHandle::make<reclaim::HazardDomain>(); }});
    reg.add({"qsbr",
             "quiescent-state — runner announces quiescence per iteration",
             [] { return reclaim::DomainHandle::make<reclaim::QsbrDomain>(); }});
    reg.add({"leak", "no-op baseline — frees only at domain destruction",
             [] { return reclaim::DomainHandle::make<reclaim::LeakyDomain>(); }});
}

}  // namespace

Config effective_stack_config(const StackParams& p) {
    Config cfg = p.config != nullptr ? *p.config : Config{};
    if (p.config == nullptr) cfg.max_threads = tid_bound(p.threads);
    cfg.max_threads =
        std::min(std::max<std::size_t>(cfg.max_threads, 1), kMaxThreads);
    cfg.num_aggregators = std::min(cfg.num_aggregators, cfg.max_threads);
    return cfg;
}

// ---- AlgorithmRegistry -----------------------------------------------------

AlgorithmRegistry::AlgorithmRegistry() { register_builtin_algorithms(*this); }

AlgorithmRegistry& AlgorithmRegistry::instance() {
    static AlgorithmRegistry reg;
    return reg;
}

void AlgorithmRegistry::add(AlgoSpec spec) {
    // The family / scheme split follows the "BASE@scheme" naming convention.
    const auto at = spec.name.find('@');
    spec.base = spec.name.substr(0, at);
    spec.reclaim = at == std::string::npos
                       ? (spec.supports_domain ? "ebr" : "")
                       : spec.name.substr(at + 1);
    const auto pos = std::find_if(
        specs_.begin(), specs_.end(),
        [&spec](const std::unique_ptr<AlgoSpec>& s) {
            return s->legend_rank > spec.legend_rank;
        });
    specs_.insert(pos, std::make_unique<AlgoSpec>(std::move(spec)));
}

const AlgoSpec* AlgorithmRegistry::find(std::string_view name) const {
    for (const auto& s : specs_) {
        if (s->name == name) return s.get();
    }
    return nullptr;
}

const AlgoSpec* AlgorithmRegistry::find_variant(
    std::string_view base, std::string_view scheme) const {
    if (scheme.empty() || scheme == "ebr") return find(base);
    std::string name(base);
    name += '@';
    name += scheme;
    return find(name);
}

std::vector<const AlgoSpec*> AlgorithmRegistry::all() const {
    std::vector<const AlgoSpec*> out;
    for (const auto& s : specs_) out.push_back(s.get());
    return out;
}

std::vector<const AlgoSpec*> AlgorithmRegistry::default_set() const {
    std::vector<const AlgoSpec*> out;
    for (const auto& s : specs_) {
        if (s->default_set) out.push_back(s.get());
    }
    return out;
}

std::string AlgorithmRegistry::names_csv() const {
    std::string out;
    for (const auto& s : specs_) {
        if (!out.empty()) out += ", ";
        out += s->name;
    }
    return out;
}

// ---- ReclaimerRegistry -----------------------------------------------------

ReclaimerRegistry::ReclaimerRegistry() { register_builtin_reclaimers(*this); }

ReclaimerRegistry& ReclaimerRegistry::instance() {
    static ReclaimerRegistry reg;
    return reg;
}

void ReclaimerRegistry::add(ReclaimerSpec spec) {
    specs_.push_back(std::make_unique<ReclaimerSpec>(std::move(spec)));
}

std::vector<const ReclaimerSpec*> ReclaimerRegistry::all() const {
    std::vector<const ReclaimerSpec*> out;
    for (const auto& s : specs_) out.push_back(s.get());
    return out;
}

// ---- ScenarioRegistry ------------------------------------------------------

ScenarioRegistry::ScenarioRegistry() {
    detail::register_builtin_scenarios(*this);
}

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry reg;
    return reg;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
    specs_.push_back(std::make_unique<ScenarioSpec>(std::move(spec)));
}

const ScenarioSpec* ScenarioRegistry::find(std::string_view name) const {
    for (const auto& s : specs_) {
        if (s->name == name) return s.get();
    }
    return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::all() const {
    std::vector<const ScenarioSpec*> out;
    for (const auto& s : specs_) out.push_back(s.get());
    return out;
}

// ---- ScenarioContext pipeline ----------------------------------------------

std::vector<std::string> ScenarioContext::columns() const {
    std::vector<std::string> out;
    for (const AlgoSpec* a : algos) out.push_back(a->name);
    return out;
}

RunConfig ScenarioContext::run_config(unsigned threads,
                                      const OpMix& mix) const {
    return run_config(threads, mix, env);
}

RunConfig ScenarioContext::run_config(unsigned threads, const OpMix& mix,
                                      const EnvConfig& e) const {
    RunConfig cfg;
    cfg.threads = threads;
    cfg.duration = std::chrono::milliseconds(e.duration_ms);
    cfg.prefill = e.prefill;
    cfg.mix = mix;
    cfg.runs = e.runs;
    cfg.seed = e.seed;
    cfg.pin = topo::parse_pin_policy(e.pin).value_or(topo::PinPolicy::kNone);
    cfg.counters = true;  // silent where the kernel refuses perf events
    return cfg;
}

void ScenarioContext::series(Table& table, const AlgoSpec& algo,
                             const OpMix& mix) const {
    series(table, algo, mix, env);
}

void ScenarioContext::series(Table& table, const AlgoSpec& algo,
                             const OpMix& mix, const EnvConfig& e) const {
    for (unsigned t : e.threads) {
        const RunConfig cfg = run_config(t, mix, e);
        StackParams params;
        params.threads = t;
        const RunResult r =
            run_throughput_any([&] { return algo.make(params); }, cfg);
        table.add(t, algo.name, r.mops);
        progress_line(algo.name, t, r.mops);
        // Hardware-counter evidence next to the Mops cell, when the kernel
        // granted the counter groups. Unit-less csv_row cells: reported by
        // the snapshot compare but never gated (counter rates move with
        // the host's PMU, not with codegen alone).
        if (r.perf.any() && r.total_ops > 0) {
            const double ops = static_cast<double>(r.total_ops);
            const std::string perf_table = std::string(table.name()) + "_perf";
            csv_row(perf_table, std::to_string(t), algo.name + ":cycles_per_op",
                    static_cast<double>(r.perf.cycles) / ops);
            csv_row(perf_table, std::to_string(t), algo.name + ":instr_per_op",
                    static_cast<double>(r.perf.instructions) / ops);
            csv_row(perf_table, std::to_string(t),
                    algo.name + ":llc_miss_per_kop",
                    static_cast<double>(r.perf.llc_misses) * 1000.0 / ops);
        }
    }
}

void ScenarioContext::emit(const Table& table) const {
    table.print();
    if (csv != nullptr) table.write_csv(csv);
    if (json != nullptr) {
        table.for_each_cell([&](unsigned t, const std::string& col, double v) {
            json->add(table.name(), std::to_string(t), col, table.unit(), v);
        });
    }
}

void ScenarioContext::csv_row(std::string_view table, std::string_view key,
                              std::string_view column, double value) const {
    // csv_row cells carry no unit; their column names say what they hold.
    if (json != nullptr) json->add(table, key, column, "", value);
    const auto write = [&](std::FILE* out, const char* prefix) {
        std::fprintf(out, "%s%.*s,%.*s,%.*s,%.4f\n", prefix,
                     static_cast<int>(table.size()), table.data(),
                     static_cast<int>(key.size()), key.data(),
                     static_cast<int>(column.size()), column.data(), value);
    };
    write(stdout, "CSV,");
    if (csv != nullptr) write(csv, "");
}

// ---- entry points ----------------------------------------------------------

int run_scenario(std::string_view name, const ScenarioContext& ctx) {
    const ScenarioSpec* spec = ScenarioRegistry::instance().find(name);
    if (spec == nullptr) {
        std::string available;
        for (const ScenarioSpec* s : ScenarioRegistry::instance().all()) {
            if (!available.empty()) available += ", ";
            available += s->name;
        }
        std::fprintf(stderr, "secbench: unknown scenario '%.*s'; available: %s\n",
                     static_cast<int>(name.size()), name.data(),
                     available.c_str());
        return 2;
    }
    print_preamble(std::string("secbench ") + spec->name + " — " + spec->title,
                   ctx.env, ctx.paper);
    const int rc = spec->run(ctx);
    // Decorrelate the NEXT scenario's per-worker RNG streams from this
    // one's (see phase_seed): advancing after the body keeps stream 0 — and
    // with it the historical seeding — for the first scenario of every
    // invocation and for every direct runner call in the tests.
    advance_seed_stream();
    return rc;
}

}  // namespace sec::bench
