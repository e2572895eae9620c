// registry_test.cpp — the algorithm/scenario registries and the type-erased
// AnyStack path: round-trips, legend-order columns, unknown-name reporting,
// the runner's threads==0 guard, and a smoke scenario run.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <set>
#include <string>

#include "sec.hpp"
#include "workload/any_runner.hpp"
#include "workload/registry.hpp"
#include "workload/sweep.hpp"

namespace sb = sec::bench;

TEST(AlgorithmRegistry, DefaultColumnsAreTheSixCompetitorsInLegendOrder) {
    const std::vector<std::string> expected = {"CC",  "EB",  "FC",
                                               "SEC", "TRB", "TSI"};
    std::vector<std::string> names;
    for (const sb::AlgoSpec* a :
         sb::AlgorithmRegistry::instance().default_set()) {
        names.push_back(a->name);
    }
    EXPECT_EQ(names, expected);
}

TEST(AlgorithmRegistry, ListsAtLeastSixAlgorithms) {
    EXPECT_GE(sb::AlgorithmRegistry::instance().all().size(), 6u);
}

TEST(AlgorithmRegistry, UnknownNameReportsTheAvailableSet) {
    auto& reg = sb::AlgorithmRegistry::instance();
    EXPECT_EQ(reg.find("NOPE"), nullptr);
    const std::string available = reg.names_csv();
    for (const char* name : {"CC", "EB", "FC", "SEC", "TRB", "TSI"}) {
        EXPECT_NE(available.find(name), std::string::npos) << available;
    }
}

// Every registered algorithm round-trips values through the erased handle:
// pushed multiset == popped multiset (the FIFO rows are here too, so no
// LIFO check), and the empty structure pops nullopt.
TEST(AnyStack, EveryRegisteredAlgorithmRoundTripsPushPop) {
    for (const sb::AlgoSpec* spec : sb::AlgorithmRegistry::instance().all()) {
        SCOPED_TRACE(spec->name);
        sb::StackParams params;
        params.threads = 2;
        sec::AnyStack stack = spec->make(params);
        ASSERT_TRUE(static_cast<bool>(stack));

        std::multiset<std::uint64_t> pushed;
        for (std::uint64_t v = 1; v <= 32; ++v) {
            EXPECT_TRUE(stack.push(v));
            pushed.insert(v);
        }
        std::multiset<std::uint64_t> popped;
        for (int i = 0; i < 32; ++i) {
            const auto v = stack.pop();
            ASSERT_TRUE(v.has_value());
            popped.insert(*v);
        }
        EXPECT_EQ(pushed, popped);
        EXPECT_FALSE(stack.pop().has_value());
    }
}

TEST(AnyStack, LifoOrderThroughTheErasedHandle) {
    const sb::AlgoSpec* trb = sb::AlgorithmRegistry::instance().find("TRB");
    ASSERT_NE(trb, nullptr);
    sb::StackParams params;
    sec::AnyStack stack = trb->make(params);
    for (std::uint64_t v = 1; v <= 8; ++v) stack.push(v);
    for (int v = 8; v >= 1; --v) {
        EXPECT_EQ(stack.pop(), static_cast<std::uint64_t>(v));
    }
}

TEST(AnyStack, StatsSurfaceOnlyWhereTheConcreteTypeHasThem) {
    auto& reg = sb::AlgorithmRegistry::instance();
    sb::StackParams params;
    params.threads = 2;
    sec::Config cfg;
    cfg.max_threads = sb::tid_bound(2);
    cfg.collect_stats = true;
    params.config = &cfg;
    sec::AnyStack sec_stack = reg.find("SEC")->make(params);
    EXPECT_TRUE(sec_stack.has_stats());
    sec::AnyStack trb_stack = reg.find("TRB")->make(sb::StackParams{});
    EXPECT_FALSE(trb_stack.has_stats());
}

TEST(Runner, ZeroThreadsIsGuardedNotDividedBy) {
    const sb::RunConfig cfg = [] {
        sb::RunConfig c;
        c.threads = 0;
        c.prefill = 100;  // would previously divide by zero
        c.duration = std::chrono::milliseconds(1);
        return c;
    }();
    const sb::RunResult erased = sb::run_throughput_any(
        [] {
            return sb::AlgorithmRegistry::instance().find("TRB")->make(
                sb::StackParams{});
        },
        cfg);
    EXPECT_EQ(erased.total_ops, 0u);
    EXPECT_EQ(erased.mops, 0.0);
}

TEST(AnyRunner, ThroughputRunsThroughTheErasedPath) {
    sb::RunConfig cfg;
    cfg.threads = 2;
    cfg.duration = std::chrono::milliseconds(20);
    cfg.prefill = 128;
    const sb::RunResult r = sb::run_throughput_any(
        [] {
            sb::StackParams params;
            params.threads = 2;
            return sb::AlgorithmRegistry::instance().find("SEC")->make(params);
        },
        cfg);
    EXPECT_GT(r.total_ops, 0u);
}

TEST(ScenarioRegistry, ListsAtLeastEightScenarios) {
    auto& reg = sb::ScenarioRegistry::instance();
    EXPECT_GE(reg.all().size(), 8u);
    for (const char* name :
         {"fig2", "fig3", "fig4", "table1", "latency", "reclamation",
          "sweep", "ablation_backoff", "micro"}) {
        EXPECT_NE(reg.find(name), nullptr) << name;
    }
}

TEST(ScenarioRegistry, UnknownScenarioReturnsNonZero) {
    sb::ScenarioContext ctx;
    ctx.algos = sb::AlgorithmRegistry::instance().default_set();
    EXPECT_EQ(sb::run_scenario("no_such_scenario", ctx), 2);
}

// ---- the sweep engine (workload/sweep.hpp) ---------------------------------

// Golden schema for the sweep's long-form CSV: header row, then exactly
// `table,key,column,value` with every (agg, backoff) combination of the two
// axes present as an `agg<A>_bo<B>` column plus the sweep_best summary rows.
TEST(SweepEngine, CsvMatchesTheGoldenSchema) {
    sb::ScenarioContext ctx;
    ctx.smoke = true;
    ctx.env.duration_ms = 5;
    ctx.env.runs = 1;
    ctx.env.threads = {2};
    ctx.env.prefill = 64;
    ctx.algos = {sb::AlgorithmRegistry::instance().find("SEC")};
    std::FILE* csv = std::tmpfile();
    ASSERT_NE(csv, nullptr);
    sb::Table::write_csv_header(csv);
    ctx.csv = csv;

    EXPECT_EQ(sb::run_scenario("sweep", ctx), 0);

    std::rewind(csv);
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof line, csv), nullptr);
    EXPECT_EQ(std::string(line), "table,key,column,value\n");
    std::set<std::string> sweep_columns;
    std::set<std::string> tables;
    while (std::fgets(line, sizeof line, csv) != nullptr) {
        const std::string row(line);
        // table,key,column,value — 3 commas, numeric value field.
        const auto c1 = row.find(',');
        const auto c2 = row.find(',', c1 + 1);
        const auto c3 = row.find(',', c2 + 1);
        ASSERT_NE(c3, std::string::npos) << row;
        const std::string table = row.substr(0, c1);
        const std::string key = row.substr(c1 + 1, c2 - c1 - 1);
        const std::string column = row.substr(c2 + 1, c3 - c2 - 1);
        tables.insert(table);
        EXPECT_TRUE(table == "sweep" || table == "sweep_best") << row;
        EXPECT_EQ(key, "2") << row;  // the only thread count in the grid
        if (table == "sweep") sweep_columns.insert(column);
        const std::string value = row.substr(c3 + 1);
        EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(value[0])))
            << row;
    }
    std::fclose(csv);
    EXPECT_EQ(tables.size(), 2u);
    // K in 1..5 times backoff in {0, 128, 256, 512, 1024, 4096} ns.
    EXPECT_EQ(sweep_columns.size(), 30u);
    for (const char* column : {"agg1_bo0", "agg3_bo512", "agg5_bo4096"}) {
        EXPECT_EQ(sweep_columns.count(column), 1u) << column;
    }
}

// A csv_row cell reaches stdout as `CSV,<the file row>`, so stdout and the
// --csv file carry the same rows for every scenario.
TEST(ScenarioContext, CsvRowPrintsTheFileRowOnStdout) {
    sb::ScenarioContext ctx;
    std::FILE* csv = std::tmpfile();
    ASSERT_NE(csv, nullptr);
    ctx.csv = csv;
    testing::internal::CaptureStdout();
    ctx.csv_row("latency_upd100", "SEC@t2", "p99_ns", 1234.5);
    const std::string out = testing::internal::GetCapturedStdout();
    std::rewind(csv);
    char line[128] = {};
    ASSERT_NE(std::fgets(line, sizeof line, csv), nullptr);
    std::fclose(csv);
    EXPECT_EQ(std::string(line), "latency_upd100,SEC@t2,p99_ns,1234.5000\n");
    EXPECT_EQ(out, "CSV," + std::string(line));
}

// Regression: two scenarios run back-to-back in ONE invocation used to
// reseed every worker identically — phase_seed was a pure function of
// (seed, worker, run, salt), so a multi-scenario --csv run replayed the
// exact same op streams in every scenario. run_scenario now advances the
// process-wide seed stream after each scenario body: streams differ across
// scenario positions, deterministically (a --seed replay of the same
// invocation reproduces the same per-position streams), and the first
// scenario keeps the historical stream-0 seeding.
TEST(ScenarioRegistry, BackToBackScenariosDrawFromIndependentSeedStreams) {
    // A no-op scenario so the test drives run_scenario itself, not a
    // benchmark body.
    sb::ScenarioRegistry::instance().add(
        {"noop_seed_probe", "seed-stream regression probe",
         [](const sb::ScenarioContext&) { return 0; }});
    sb::ScenarioContext ctx;
    ctx.env.threads = {1};
    ctx.env.duration_ms = 1;
    ctx.env.runs = 1;

    const std::uint64_t stream0 = sb::seed_stream();
    const std::uint64_t first = sb::phase_seed(42, 0, 0);
    ASSERT_EQ(sb::run_scenario("noop_seed_probe", ctx), 0);
    const std::uint64_t second = sb::phase_seed(42, 0, 0);
    ASSERT_EQ(sb::run_scenario("noop_seed_probe", ctx), 0);
    const std::uint64_t third = sb::phase_seed(42, 0, 0);

    // Each scenario position gets its own stream...
    EXPECT_EQ(sb::seed_stream(), stream0 + 2);
    EXPECT_NE(first, second);
    EXPECT_NE(second, third);
    EXPECT_NE(first, third);
    // ...and within one position the seeding stays a pure function of
    // (seed, worker, run, salt) — the --seed replay contract.
    EXPECT_EQ(third, sb::phase_seed(42, 0, 0));
    EXPECT_NE(sb::phase_seed(42, 0, 0), sb::phase_seed(42, 1, 0));
}

// A scenario end-to-end through the registry, tiny budget (the full
// `secbench all --smoke` pass is a ctest of the binary itself).
TEST(ScenarioRegistry, Fig2RunsOnATinyBudget) {
    sb::ScenarioContext ctx;
    ctx.smoke = true;
    ctx.env.duration_ms = 10;
    ctx.env.runs = 1;
    ctx.env.threads = {2};
    ctx.env.prefill = 64;
    ctx.algos = {sb::AlgorithmRegistry::instance().find("SEC"),
                 sb::AlgorithmRegistry::instance().find("TRB")};
    EXPECT_EQ(sb::run_scenario("fig2", ctx), 0);
}
