// service_test.cpp — the open-loop service harness (workload/service.hpp):
// deterministic arrival schedules with the right rate and shape, full-drain
// accounting, composition with the registry variants, the knee finder's
// search behaviour, and the harness's reason to exist — a deterministic
// consumer stall whose queueing delay shows up in the open-loop sojourn
// tail while the closed-loop service-time histogram stays flat.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "workload/registry.hpp"
#include "workload/service.hpp"

namespace sb = sec::bench;

namespace {

sb::AnyStackFactory factory_for(const char* algo, unsigned lanes) {
    const sb::AlgoSpec* spec = sb::AlgorithmRegistry::instance().find(algo);
    EXPECT_NE(spec, nullptr) << algo;
    sb::StackParams params;
    params.threads = lanes;
    return [spec, params] { return spec->make(params); };
}

}  // namespace

TEST(ArrivalSchedule, ParseAndNameRoundTrip) {
    ASSERT_TRUE(sb::parse_arrival("poisson").has_value());
    ASSERT_TRUE(sb::parse_arrival("burst").has_value());
    EXPECT_FALSE(sb::parse_arrival("uniform").has_value());
    EXPECT_FALSE(sb::parse_arrival("").has_value());
    EXPECT_EQ(sb::arrival_name(*sb::parse_arrival("poisson")), "poisson");
    EXPECT_EQ(sb::arrival_name(*sb::parse_arrival("burst")), "burst");
}

TEST(ArrivalSchedule, PoissonIsDeterministicSortedAndRateAccurate) {
    sb::ServiceConfig cfg;
    cfg.duration = std::chrono::milliseconds(200);
    const double rate = 100'000.0;  // ops/s -> ~20k arrivals
    const auto a = sb::make_arrival_schedule(cfg, rate, 42);
    const auto b = sb::make_arrival_schedule(cfg, rate, 42);
    EXPECT_EQ(a, b);
    const auto c = sb::make_arrival_schedule(cfg, rate, 43);
    EXPECT_NE(a, c);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_LT(a.back(), 200'000'000u);  // inside the horizon
    // 20k expected arrivals: +-10% is ~14 sigma for a Poisson count.
    EXPECT_GT(a.size(), 18'000u);
    EXPECT_LT(a.size(), 22'000u);
}

TEST(ArrivalSchedule, BurstArrivalsStayInsideTheDutyWindow) {
    sb::ServiceConfig cfg;
    cfg.duration = std::chrono::milliseconds(200);
    cfg.arrival = sb::ArrivalKind::kBurst;
    cfg.burst_period = std::chrono::milliseconds(10);
    cfg.burst_duty = 0.25;
    const double rate = 100'000.0;
    const auto s = sb::make_arrival_schedule(cfg, rate, 7);
    ASSERT_FALSE(s.empty());
    constexpr std::uint64_t kPeriodNs = 10'000'000;
    constexpr std::uint64_t kOnNs = 2'500'000;
    for (std::uint64_t t : s) {
        EXPECT_LT(t % kPeriodNs, kOnNs) << "arrival outside the burst at "
                                        << t;
    }
    // The mean rate is preserved despite the compression.
    EXPECT_GT(s.size(), 17'000u);
    EXPECT_LT(s.size(), 23'000u);
}

TEST(ServiceRun, ModestLoadDrainsCompletely) {
    sb::ServiceConfig cfg;
    cfg.producers = 2;
    cfg.consumers = 2;
    cfg.load_kops = 10.0;
    cfg.duration = std::chrono::milliseconds(200);
    cfg.seed = 1;
    const sb::ServiceResult r =
        sb::run_service_any(factory_for("SEC", 4), cfg);
    ASSERT_GT(r.produced, 0u);
    EXPECT_EQ(r.completed, r.produced);
    EXPECT_EQ(r.sojourn.total(), r.completed);
    EXPECT_EQ(r.service.total(), r.completed);
    EXPECT_GT(r.offered_kops, 0.0);
    EXPECT_GT(r.achieved_kops, 0.0);
    EXPECT_GT(r.window_s, 0.0);
}

TEST(ServiceRun, ComposesWithHpAndQsbrVariants) {
    for (const char* algo : {"TRB", "FC", "SEC@hp", "SEC@qsbr"}) {
        SCOPED_TRACE(algo);
        sb::ServiceConfig cfg;
        cfg.producers = 1;
        cfg.consumers = 2;
        cfg.load_kops = 5.0;
        cfg.duration = std::chrono::milliseconds(100);
        cfg.seed = 2;
        const sb::ServiceResult r =
            sb::run_service_any(factory_for(algo, 3), cfg);
        ASSERT_GT(r.produced, 0u);
        EXPECT_EQ(r.completed, r.produced);
    }
}

TEST(ServiceRun, DegenerateConfigsReturnEmptyResults) {
    sb::ServiceConfig cfg;
    cfg.producers = 0;
    EXPECT_EQ(sb::run_service_any(factory_for("TRB", 2), cfg).produced, 0u);
    cfg.producers = 1;
    cfg.consumers = 0;
    EXPECT_EQ(sb::run_service_any(factory_for("TRB", 2), cfg).produced, 0u);
    cfg.consumers = 1;
    cfg.load_kops = 0;
    EXPECT_EQ(sb::run_service_any(factory_for("TRB", 2), cfg).produced, 0u);
}

// The harness's reason to exist: a consumer that stalls 100 ms mid-run backs
// up every request scheduled during the stall. Charging completion minus
// *scheduled* arrival (sojourn) surfaces that as a fat p99; the per-op
// service-time histogram — what a closed-loop benchmark measures — never
// sees it, because the stall sits outside the pop call. A benchmark without
// this property under-reports tail latency by the full stall (coordinated
// omission).
TEST(ServiceRun, StallShowsInSojournTailButNotServiceTail) {
    sb::ServiceConfig cfg;
    cfg.producers = 1;
    cfg.consumers = 1;
    cfg.load_kops = 2.0;  // one request per 500 us -> ~800 requests
    cfg.duration = std::chrono::milliseconds(400);
    cfg.seed = 3;
    cfg.stall_after_op = 20;
    cfg.stall_ns = 100'000'000;  // 100 ms, ~200 requests arrive meanwhile
    const sb::ServiceResult r =
        sb::run_service_any(factory_for("TRB", 2), cfg);
    ASSERT_GT(r.produced, 0u);
    EXPECT_EQ(r.completed, r.produced);
    // >15% of requests queue >= 30 ms behind the stall, so the 99th
    // percentile must see it even on a slow, oversubscribed host.
    EXPECT_GE(r.sojourn.quantile_ns(0.99), 30'000'000u);
    // The pop call itself never blocks for the stall: its p99 stays orders
    // of magnitude below (15 ms leaves room for scheduler preemption).
    EXPECT_LE(r.service.quantile_ns(0.99), 15'000'000u);
}

TEST(KneeFinder, ReachesTheCapWhenNothingExplodes) {
    sb::ServiceConfig cfg;
    cfg.producers = 1;
    cfg.consumers = 1;
    cfg.duration = std::chrono::milliseconds(50);
    cfg.seed = 4;
    sb::KneeConfig knee;
    knee.start_kops = 2.0;
    knee.max_kops = 8.0;
    knee.p99_limit_ns = ~std::uint64_t{0} >> 1;  // nothing can exceed it
    unsigned hook_calls = 0;
    const sb::KneeResult r = sb::find_service_knee(
        factory_for("TRB", 2), cfg, knee,
        [&](const sb::KneeProbe& p) {
            EXPECT_EQ(p.index, hook_calls);  // probes arrive in order
            ++hook_calls;
            EXPECT_TRUE(p.sustainable);
            EXPECT_GT(p.achieved_kops, 0.0);
        });
    EXPECT_DOUBLE_EQ(r.sustainable_kops, 8.0);
    EXPECT_EQ(r.probes, 3u);  // 2, 4, 8
    EXPECT_EQ(hook_calls, r.probes);
}

TEST(KneeFinder, ReportsZeroWhenEvenTheFirstProbeExplodes) {
    sb::ServiceConfig cfg;
    cfg.producers = 1;
    cfg.consumers = 1;
    cfg.duration = std::chrono::milliseconds(50);
    cfg.seed = 5;
    sb::KneeConfig knee;
    knee.start_kops = 2.0;
    knee.max_kops = 8.0;
    knee.p99_limit_ns = 0;  // no sojourn can land under it
    const sb::KneeResult r = sb::find_service_knee(factory_for("TRB", 2),
                                                   cfg, knee);
    EXPECT_DOUBLE_EQ(r.sustainable_kops, 0.0);
    EXPECT_EQ(r.probes, 1u);
}

TEST(KneeFinder, BisectsBetweenTheLastGoodAndFirstBadLoad) {
    // A load-dependent failure via stall injection: the stall only fires
    // once a consumer completes 500 requests, and only loads above ~5 Kops
    // produce that many in the 100 ms horizon. Low probes stay clean, high
    // probes eat a 100 ms stall whose backlog blows the 20 ms sojourn
    // limit, and the search must bisect into the gap.
    sb::ServiceConfig cfg;
    cfg.producers = 1;
    cfg.consumers = 1;
    cfg.duration = std::chrono::milliseconds(100);
    cfg.seed = 6;
    cfg.stall_after_op = 500;
    cfg.stall_ns = 100'000'000;
    sb::KneeConfig knee;
    knee.start_kops = 4.0;  // ~400 requests: comfortably below the trigger
    knee.max_kops = 8.0;    // ~800 requests: stall fires, tail explodes
    knee.refine_steps = 1;
    knee.p99_limit_ns = 20'000'000;
    std::vector<double> probed;
    std::vector<bool> verdicts;
    const sb::KneeResult r = sb::find_service_knee(
        factory_for("TRB", 2), cfg, knee, [&](const sb::KneeProbe& p) {
            probed.push_back(p.offered_kops);
            verdicts.push_back(p.sustainable);
        });
    const std::vector<double> expected = {4.0, 8.0, 6.0};
    EXPECT_EQ(probed, expected);
    ASSERT_EQ(verdicts.size(), 3u);
    EXPECT_TRUE(verdicts[0]);
    EXPECT_FALSE(verdicts[1]);
    EXPECT_FALSE(verdicts[2]);  // ~600 requests still trip the stall
    EXPECT_DOUBLE_EQ(r.sustainable_kops, 4.0);
    EXPECT_EQ(r.probes, 3u);
}
