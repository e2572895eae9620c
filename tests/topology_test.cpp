// topology_test.cpp — sec::topo + sec::exec: sysfs parsing against canned
// fixture trees (single-socket SMT, dual-socket, degenerate 1-core), the
// dense renumbering maps, each placement policy's cpu order, plan
// offset/wrap for multi-pool splits, perf-counter graceful degradation
// under a forced-denied syscall (SEC_PERF_DISABLE), and the WorkerPool
// lifecycle (index coverage, tid registration, best-effort pinning).
//
// The fixture trees use the same file layout the kernel exposes under
// /sys/devices/system/cpu — Topology::parse() is byte-for-byte the code
// that reads the live tree, so what passes here is what runs on hardware.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sched.h>

#include "core/common.hpp"
#include "exec/worker_pool.hpp"

namespace {

namespace fs = std::filesystem;
namespace topo = sec::topo;
namespace ex = sec::exec;

// ---- fixture trees ---------------------------------------------------------

void write_file(const fs::path& path, const std::string& text) {
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << text << "\n";  // sysfs files end in a newline
    ASSERT_TRUE(out.good()) << path;
}

struct CpuSpec {
    unsigned cpu;
    int package;
    int core;            // raw core_id (per-package namespace, like sysfs)
    std::string l3_list; // shared_cpu_list of the L3; "" = no cache dir
};

fs::path make_tree(const std::string& name, const std::vector<CpuSpec>& cpus,
                   const std::string& online = "") {
    const fs::path root = fs::path(::testing::TempDir()) / name;
    fs::remove_all(root);
    if (!online.empty()) write_file(root / "online", online);
    for (const CpuSpec& c : cpus) {
        const fs::path dir = root / ("cpu" + std::to_string(c.cpu));
        write_file(dir / "topology" / "package_id",
                   std::to_string(c.package));
        write_file(dir / "topology" / "core_id", std::to_string(c.core));
        if (!c.l3_list.empty()) {
            // Realistic cache ladder: L1/L2 private, L3 shared. The parser
            // walks index0.. until the first gap looking for level == 3.
            write_file(dir / "cache" / "index0" / "level", "1");
            write_file(dir / "cache" / "index0" / "shared_cpu_list",
                       std::to_string(c.cpu));
            write_file(dir / "cache" / "index1" / "level", "2");
            write_file(dir / "cache" / "index1" / "shared_cpu_list",
                       std::to_string(c.cpu));
            write_file(dir / "cache" / "index2" / "level", "3");
            write_file(dir / "cache" / "index2" / "shared_cpu_list",
                       c.l3_list);
        }
    }
    return root;
}

// Single socket, 4 cores x 2 SMT threads, Linux sibling convention
// (cpu t and cpu t+4 share core t), one L3 over everything.
fs::path smt_tree() {
    std::vector<CpuSpec> cpus;
    for (unsigned c = 0; c < 8; ++c) {
        cpus.push_back({c, 0, static_cast<int>(c % 4), "0-7"});
    }
    return make_tree("topo_smt", cpus);  // no `online`: exercise the scan
}

// Two sockets, 4 single-thread cores each, one L3 per socket; raw core_id
// restarts at 0 on the second socket exactly like real sysfs.
fs::path dual_tree() {
    std::vector<CpuSpec> cpus;
    for (unsigned c = 0; c < 8; ++c) {
        const int pkg = c < 4 ? 0 : 1;
        cpus.push_back({c, pkg, static_cast<int>(c % 4),
                        pkg == 0 ? "0-3" : "4-7"});
    }
    return make_tree("topo_dual", cpus, "0-7");  // exercise `online` too
}

// ---- parsing + dense maps --------------------------------------------------

TEST(Topology, ParsesSingleSocketSmtTree) {
    const auto t = topo::Topology::parse(smt_tree().string());
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->num_cpus(), 8u);
    EXPECT_EQ(t->packages(), 1u);
    EXPECT_EQ(t->cores(), 4u);
    EXPECT_EQ(t->cores_per_package(), 4u);
    EXPECT_EQ(t->smt_width(), 2u);
    EXPECT_EQ(t->l3_domains(), 1u);
    EXPECT_FALSE(t->synthetic());

    // cpu0 and cpu4 share core 0; cpu4 is the second sibling.
    const topo::CpuInfo* first = t->find_cpu(0);
    const topo::CpuInfo* sibling = t->find_cpu(4);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(sibling, nullptr);
    EXPECT_EQ(first->core, sibling->core);
    EXPECT_EQ(first->smt, 0);
    EXPECT_EQ(sibling->smt, 1);
    EXPECT_EQ(first->l3, sibling->l3);
    EXPECT_EQ(t->find_cpu(99), nullptr);
}

TEST(Topology, ParsesDualSocketTreeWithDenseRenumbering) {
    const auto t = topo::Topology::parse(dual_tree().string());
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->packages(), 2u);
    EXPECT_EQ(t->cores(), 8u);
    EXPECT_EQ(t->cores_per_package(), 4u);
    EXPECT_EQ(t->smt_width(), 1u);
    EXPECT_EQ(t->l3_domains(), 2u);

    // Raw core_id 0 appears on both sockets; dense core ids must not
    // collide, and package/L3 renumber in first-appearance order.
    const topo::CpuInfo* a = t->find_cpu(0);
    const topo::CpuInfo* b = t->find_cpu(4);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->package, 0);
    EXPECT_EQ(b->package, 1);
    EXPECT_NE(a->core, b->core);
    EXPECT_EQ(a->l3, 0);
    EXPECT_EQ(b->l3, 1);
}

TEST(Topology, DegenerateOneCoreTreeWithoutCacheDir) {
    // A 1-core container often exposes no cache directory at all; the
    // package becomes the L3 domain stand-in.
    const fs::path root = make_tree("topo_tiny", {{0, 0, 0, ""}});
    const auto t = topo::Topology::parse(root.string());
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->num_cpus(), 1u);
    EXPECT_EQ(t->packages(), 1u);
    EXPECT_EQ(t->cores(), 1u);
    EXPECT_EQ(t->smt_width(), 1u);
    EXPECT_EQ(t->l3_domains(), 1u);
    // Every policy still produces a plan: all workers on the one cpu.
    EXPECT_EQ(t->plan(topo::PinPolicy::kCompact, 4),
              (std::vector<int>{0, 0, 0, 0}));
}

TEST(Topology, EmptyTreeIsAnError) {
    const fs::path root = fs::path(::testing::TempDir()) / "topo_empty";
    fs::remove_all(root);
    fs::create_directories(root);
    std::string err;
    EXPECT_FALSE(topo::Topology::parse(root.string(), &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Topology, FlatFallbackIsOnePackageOneDomain) {
    const topo::Topology t = topo::Topology::flat(4);
    EXPECT_TRUE(t.synthetic());
    EXPECT_EQ(t.num_cpus(), 4u);
    EXPECT_EQ(t.packages(), 1u);
    EXPECT_EQ(t.cores(), 4u);
    EXPECT_EQ(t.smt_width(), 1u);
    EXPECT_EQ(t.l3_domains(), 1u);
    EXPECT_EQ(t.plan(topo::PinPolicy::kCompact, 2),
              (std::vector<int>{0, 1}));
}

TEST(Topology, PinPolicyNamesRoundTrip) {
    EXPECT_EQ(topo::parse_pin_policy("none"), topo::PinPolicy::kNone);
    EXPECT_EQ(topo::parse_pin_policy("compact"), topo::PinPolicy::kCompact);
    EXPECT_EQ(topo::parse_pin_policy("scatter"), topo::PinPolicy::kScatter);
    EXPECT_EQ(topo::parse_pin_policy("smt"), topo::PinPolicy::kSmtAware);
    EXPECT_EQ(topo::parse_pin_policy("smt-aware"),
              topo::PinPolicy::kSmtAware);
    EXPECT_FALSE(topo::parse_pin_policy("Compact").has_value());
    EXPECT_FALSE(topo::parse_pin_policy("").has_value());
    for (auto p : {topo::PinPolicy::kNone, topo::PinPolicy::kCompact,
                   topo::PinPolicy::kScatter, topo::PinPolicy::kSmtAware}) {
        EXPECT_EQ(topo::parse_pin_policy(topo::pin_policy_name(p)), p);
    }
}

// ---- placement plans -------------------------------------------------------

TEST(TopologyPlan, CompactFillsSiblingsThenCores) {
    const auto t = topo::Topology::parse(smt_tree().string());
    ASSERT_TRUE(t.has_value());
    // Both siblings of core 0 before any of core 1: maximal cache sharing.
    EXPECT_EQ(t->plan(topo::PinPolicy::kCompact, 8),
              (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
}

TEST(TopologyPlan, SmtAwareCoversEveryCoreBeforeSiblings) {
    const auto t = topo::Topology::parse(smt_tree().string());
    ASSERT_TRUE(t.has_value());
    // One worker per physical core first; siblings only once every core
    // has one.
    EXPECT_EQ(t->plan(topo::PinPolicy::kSmtAware, 8),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(t->plan(topo::PinPolicy::kSmtAware, 4),
              (std::vector<int>{0, 1, 2, 3}));
}

TEST(TopologyPlan, ScatterRoundRobinsAcrossPackages) {
    const auto t = topo::Topology::parse(dual_tree().string());
    ASSERT_TRUE(t.has_value());
    // Worker k lands on package k mod 2.
    EXPECT_EQ(t->plan(topo::PinPolicy::kScatter, 8),
              (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
    // Compact on the same tree fills socket 0 first.
    EXPECT_EQ(t->plan(topo::PinPolicy::kCompact, 8),
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TopologyPlan, NonePlansNothingAndOffsetSplitsPools) {
    const auto t = topo::Topology::parse(dual_tree().string());
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->plan(topo::PinPolicy::kNone, 8).empty());
    // Two pools share the machine: the second pool offsets by the first
    // pool's size and lands on disjoint cpus.
    EXPECT_EQ(t->plan(topo::PinPolicy::kCompact, 4, /*offset=*/4),
              (std::vector<int>{4, 5, 6, 7}));
    // More workers than cpus wrap around the policy order.
    EXPECT_EQ(t->plan(topo::PinPolicy::kCompact, 3, /*offset=*/6),
              (std::vector<int>{6, 7, 0}));
}

// ---- perf counters: graceful degradation -----------------------------------

// SEC_PERF_DISABLE forces the denied-syscall path CI containers hit
// naturally: open() fails cleanly, samples read invalid, totals stay
// silent — no zeros masquerading as measurements.
TEST(PerfCounters, DeniedSyscallDegradesToSilence) {
    ::setenv("SEC_PERF_DISABLE", "1", 1);
    ex::PerfGroup group;
    EXPECT_FALSE(group.open());
    EXPECT_FALSE(group.available());
    group.start();  // harmless no-ops
    const ex::PerfSample sample = group.stop_and_read();
    EXPECT_FALSE(sample.valid);
    EXPECT_EQ(sample.cycles, 0u);

    ex::PerfTotals totals;
    totals.add(sample);
    EXPECT_FALSE(totals.any());
    EXPECT_EQ(totals.sampled, 0u);

    // A whole counter-enabled pool under the denied path: runs fine,
    // reports nothing.
    ex::PoolOptions opts;
    opts.counters = true;
    std::atomic<unsigned> ran{0};
    ex::WorkerPool pool(2, opts);
    pool.start([&](ex::WorkerContext& wc) {
        wc.counters_restart();  // no-op when the group never opened
        ran.fetch_add(1, std::memory_order_relaxed);
        wc.sync();
    });
    pool.sync();
    pool.join();
    EXPECT_EQ(ran.load(), 2u);
    EXPECT_FALSE(pool.counters().any());
    ::unsetenv("SEC_PERF_DISABLE");
}

TEST(PerfCounters, TotalsMergeOnlyValidSamples) {
    ex::PerfTotals totals;
    ex::PerfSample good;
    good.cycles = 100;
    good.instructions = 200;
    good.llc_misses = 3;
    good.valid = true;
    totals.add(good);
    totals.add(ex::PerfSample{});  // invalid: ignored
    EXPECT_TRUE(totals.any());
    EXPECT_EQ(totals.sampled, 1u);
    EXPECT_EQ(totals.cycles, 100u);

    ex::PerfTotals other;
    other.add(good);
    totals.merge(other);
    EXPECT_EQ(totals.sampled, 2u);
    EXPECT_EQ(totals.instructions, 400u);
}

// ---- WorkerPool lifecycle --------------------------------------------------

TEST(WorkerPool, RunCoversAllIndicesAndRegistersTids) {
    constexpr unsigned kWorkers = 8;
    std::vector<unsigned> hits(kWorkers, 0);
    std::vector<std::size_t> tids(kWorkers, sec::kMaxThreads);
    ex::WorkerPool::run(kWorkers, [&](ex::WorkerContext& wc) {
        ASSERT_LT(wc.index, kWorkers);
        hits[wc.index] += 1;
        tids[wc.index] = sec::detail::tid();
    });
    for (unsigned t = 0; t < kWorkers; ++t) {
        EXPECT_EQ(hits[t], 1u) << "worker " << t;
        EXPECT_LT(tids[t], sec::kMaxThreads) << "worker " << t;
    }
}

TEST(WorkerPool, CoordinatorBarrierSequencesPhases) {
    constexpr unsigned kWorkers = 4;
    std::atomic<unsigned> before{0};
    std::atomic<unsigned> after{0};
    ex::WorkerPool pool(kWorkers, {});
    pool.start([&](ex::WorkerContext& wc) {
        before.fetch_add(1, std::memory_order_relaxed);
        wc.sync();  // prefill -> measured-span rendezvous
        after.fetch_add(1, std::memory_order_relaxed);
    });
    pool.sync();  // coordinator holds the extra barrier slot
    EXPECT_EQ(before.load(), kWorkers);  // nobody passes sync() early
    pool.join();
    EXPECT_EQ(after.load(), kWorkers);
}

TEST(WorkerPool, PinningAgainstFixtureTopologyIsBestEffort) {
    // Plan against the dual-socket fixture. On hosts that don't have
    // cpus 0..7 (or refuse affinity) the pin fails and the worker stays
    // unpinned with cpu == -1 — the run itself must still complete, and a
    // worker that was pinned must run on its planned cpu.
    const auto fixture = topo::Topology::parse(dual_tree().string());
    ASSERT_TRUE(fixture.has_value());
    ex::PoolOptions opts;
    opts.pin = topo::PinPolicy::kScatter;
    opts.topology = &*fixture;
    opts.coordinator_in_barrier = false;

    constexpr unsigned kWorkers = 4;
    std::vector<int> got(kWorkers, -2);
    std::vector<int> ran_on(kWorkers, -2);
    ex::WorkerPool pool(kWorkers, opts);
    for (unsigned t = 0; t < kWorkers; ++t) {
        EXPECT_GE(pool.planned_cpu(t), 0);  // the plan itself always exists
    }
    pool.start([&](ex::WorkerContext& wc) {
        got[wc.index] = wc.cpu;
        ran_on[wc.index] = ::sched_getcpu();
    });
    pool.join();
    for (unsigned t = 0; t < kWorkers; ++t) {
        if (got[t] >= 0) {
            EXPECT_EQ(got[t], pool.planned_cpu(t));
            EXPECT_EQ(ran_on[t], got[t]);
        } else {
            EXPECT_EQ(got[t], -1);  // refused pin, clean fallback
        }
    }
}

TEST(WorkerPool, UnpinnedPoolPlansNothing) {
    ex::WorkerPool pool(2, {});
    EXPECT_EQ(pool.planned_cpu(0), -1);
    EXPECT_EQ(pool.planned_cpu(1), -1);
    EXPECT_EQ(pool.size(), 2u);
}

}  // namespace
