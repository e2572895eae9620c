// linearizability_test — short concurrent histories on fresh stacks,
// checked by the Wing–Gong search in container_checkers.hpp. Every `lifo`
// registry row must linearize. SecStack runs direct single-CAS ops and
// batched (eliminated or combined) ops on one spine, so its histories must
// linearize whichever path each op took; the SEC cases also require both
// paths to have run. Hand-built histories and a mutant stack show the
// checker rejects what it should.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "container_checkers.hpp"
#include "exec/worker_pool.hpp"
#include "reclaim/hazard.hpp"
#include "sec.hpp"
#include "workload/registry.hpp"

namespace {

using sec::testing::LinEvent;
using sec::testing::LinOp;
using sec::testing::tag;
using sec::testing::ThreadHistory;
using sec::testing::Value;

constexpr unsigned kThreads = 4;
constexpr unsigned kOpsPerThread = 6;
constexpr std::uint64_t kHistories = 1000;

// Runs seeded histories, each on a fresh stack from `make`: the coordinator
// pushes 0-2 values, then kThreads workers of one persistent pool leave a
// barrier together and run kOpsPerThread random pushes and pops each.
// Every pushed value is unique within its history. The pool barrier wakes
// its threads microseconds apart, longer than a whole history takes, so
// the workers also meet at a spinning rendezvous: the ops then overlap.
template <class Stack>
class HistoryRig {
public:
    explicit HistoryRig(std::function<std::unique_ptr<Stack>()> make)
        : make_(std::move(make)), pool_(kThreads, pinned()) {
        pool_.start([this](sec::exec::WorkerContext& ctx) { worker(ctx); });
    }

    ~HistoryRig() {
        exit_ = true;
        pool_.sync();
        pool_.join();
    }

    // Run history `seed` and check it; the stack stays alive (for its
    // stats) until the next run. The first failing history is kept.
    bool run(std::uint64_t seed) {
        stack_ = make_();
        seed_ = seed;
        histories_.assign(kThreads + 1, ThreadHistory{});
        for (std::uint32_t i = 0; i < seed % 3; ++i) {
            sec::testing::recorded_push(*stack_, histories_[kThreads],
                                        tag(kThreads, i));
        }
        arrived_.store(0, std::memory_order_relaxed);
        pool_.sync();  // the workers start together
        pool_.sync();  // ... and have all finished
        const bool ok = sec::testing::stack_linearizable(histories_);
        if (!ok && first_failure_.empty()) {
            first_failure_ = "seed " + std::to_string(seed) + ":\n" +
                             sec::testing::describe(histories_);
        }
        return ok;
    }

    const Stack& stack() const { return *stack_; }
    const std::string& first_failure() const { return first_failure_; }

private:
    // One cpu per worker where the host has them: unpinned, the scheduler
    // sometimes stacks the workers on shared cpus for a whole run, and the
    // histories then barely overlap.
    static sec::exec::PoolOptions pinned() {
        sec::exec::PoolOptions opts;
        opts.pin = sec::topo::PinPolicy::kCompact;
        return opts;
    }

    void worker(sec::exec::WorkerContext& ctx) {
        for (;;) {
            ctx.sync();
            if (exit_) break;
            arrived_.fetch_add(1, std::memory_order_acq_rel);
            sec::detail::Backoff backoff;
            while (arrived_.load(std::memory_order_acquire) < kThreads) {
                backoff.pause();
            }
            sec::Xoshiro256 rng(seed_ * 0x9E3779B97F4A7C15ull + ctx.index + 1);
            ThreadHistory& mine = histories_[ctx.index];
            std::uint32_t seq = 0;
            for (unsigned i = 0; i < kOpsPerThread; ++i) {
                if (rng.next_below(2) == 0) {
                    sec::testing::recorded_push(*stack_, mine,
                                                tag(ctx.index, seq++));
                } else {
                    sec::testing::recorded_pop(*stack_, mine);
                }
            }
            ctx.sync();
        }
    }

    std::function<std::unique_ptr<Stack>()> make_;
    std::unique_ptr<Stack> stack_;
    std::vector<ThreadHistory> histories_;
    std::uint64_t seed_ = 0;
    bool exit_ = false;
    std::atomic<unsigned> arrived_{0};
    std::string first_failure_;
    sec::exec::WorkerPool pool_;  // last: its workers use the members above
};

// SEC as the registry builds it for kThreads threads, with the degree and
// direct counters on.
sec::Config sec_config() {
    sec::bench::StackParams params;
    params.threads = kThreads;
    sec::Config cfg = sec::bench::effective_stack_config(params);
    cfg.collect_stats = true;
    return cfg;
}

// kHistories histories, then more until some op completed directly and
// some batch formed, or a deadline passes: on a quiet host every op can
// land its first CAS for a long stretch.
template <class Stack>
void check_sec_histories(std::uint64_t first_seed) {
    const sec::Config cfg = sec_config();
    HistoryRig<Stack> rig([&cfg] { return std::make_unique<Stack>(cfg); });
    std::uint64_t direct = 0, batches = 0, batched = 0, rejected = 0;
    std::uint64_t n = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (n < kHistories ||
           ((direct == 0 || batches == 0) &&
            std::chrono::steady_clock::now() < deadline)) {
        if (!rig.run(first_seed + n)) ++rejected;
        const sec::StatsSnapshot s = rig.stack().stats();
        direct += s.direct_ops;
        batches += s.batches;
        batched += s.batched_ops;
        ++n;
    }
    EXPECT_EQ(rejected, 0u) << "first non-linearizable history, "
                            << rig.first_failure();
    EXPECT_GT(direct, 0u) << "no op completed on the direct path";
    EXPECT_GT(batches, 0u) << "no batch formed in " << n << " histories";
    std::printf("%llu histories: %llu direct ops, %llu batched in %llu "
                "batches\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(direct),
                static_cast<unsigned long long>(batched),
                static_cast<unsigned long long>(batches));
}

TEST(Linearizability, SecHistoriesLinearizeOnBothPaths) {
    check_sec_histories<sec::SecStack<Value>>(1);
}

// Hazard pointers revalidate the anchor inside the direct pop's walk, a
// path the blanket reclaimers compile away.
TEST(Linearizability, SecHazardHistoriesLinearizeOnBothPaths) {
    check_sec_histories<sec::SecStack<Value, sec::reclaim::HazardDomain>>(
        1'000'001);
}

// Threads at or past Config::max_threads have no slot and take the
// unslotted spine path, on the same spine as the slotted ones. The rig's
// four workers take the lowest free ids and the coordinator holds at most
// one, so a bound of 2 leaves workers on both sides of it. stats() counts
// only the ops of threads below the bound.
TEST(Linearizability, SecHistoriesLinearizePastMaxThreads) {
    sec::Config cfg;
    cfg.max_threads = 2;
    cfg.num_aggregators = 2;
    cfg.collect_stats = true;
    using Stack = sec::SecStack<Value>;
    HistoryRig<Stack> rig([&cfg] { return std::make_unique<Stack>(cfg); });
    std::uint64_t counted = 0, coordinator_ops = 0, rejected = 0;
    for (std::uint64_t seed = 1; seed <= kHistories; ++seed) {
        if (!rig.run(seed)) ++rejected;
        const sec::StatsSnapshot s = rig.stack().stats();
        counted += s.direct_ops + s.batched_ops;
        coordinator_ops += seed % 3;
    }
    EXPECT_EQ(rejected, 0u) << "first non-linearizable history, "
                            << rig.first_failure();
    // The workers' ops below the bound: the counted ones, less the
    // coordinator's pushes when it holds a slot too.
    const std::uint64_t below =
        counted - (sec::detail::tid() < cfg.max_threads ? coordinator_ops : 0);
    EXPECT_GT(below, 0u) << "no worker below the bound ran an op";
    EXPECT_LT(below, kHistories * kThreads * kOpsPerThread)
        << "no worker past the bound ran an op";
}

// Every registry row that declares stack order, each reclaimer binding
// included, as the registry builds it: a row that claims `lifo` must give
// it.
TEST(Linearizability, EveryLifoRegistryRowLinearizes) {
    unsigned rows = 0;
    for (const sec::bench::AlgoSpec* spec :
         sec::bench::AlgorithmRegistry::instance().all()) {
        if (spec->shape != sec::ContainerShape::lifo) continue;
        SCOPED_TRACE(spec->name);
        HistoryRig<sec::AnyStack> rig([spec] {
            return std::make_unique<sec::AnyStack>(
                spec->make({.threads = kThreads}));
        });
        std::uint64_t rejected = 0;
        for (std::uint64_t seed = 1; seed <= kHistories; ++seed) {
            if (!rig.run(seed)) ++rejected;
        }
        EXPECT_EQ(rejected, 0u) << "first non-linearizable history, "
                                << rig.first_failure();
        ++rows;
    }
    EXPECT_GT(rows, 0u);
}

// ---- the checker says no ----------------------------------------------------

LinEvent push_at(Value v, std::uint64_t invoke, std::uint64_t response) {
    return {LinOp::kPush, true, v, invoke, response};
}

LinEvent pop_at(std::optional<Value> v, std::uint64_t invoke,
                std::uint64_t response) {
    return {LinOp::kPop, v.has_value(), v.value_or(0), invoke, response};
}

TEST(Linearizability, CheckerJudgesHandBuiltHistories) {
    using sec::testing::stack_linearizable;
    // Sequential LIFO, and the same pop answered FIFO.
    EXPECT_TRUE(stack_linearizable(
        {{push_at(1, 0, 1), push_at(2, 2, 3), pop_at(2, 4, 5)}}));
    EXPECT_FALSE(stack_linearizable(
        {{push_at(1, 0, 1), push_at(2, 2, 3), pop_at(1, 4, 5)}}));
    // A pop overlapping both pushes may take either value...
    EXPECT_TRUE(stack_linearizable(
        {{push_at(1, 0, 10), push_at(2, 11, 20)}, {pop_at(1, 5, 15)}}));
    // ...but not one pushed only after it returned.
    EXPECT_FALSE(stack_linearizable(
        {{push_at(1, 0, 10), push_at(2, 16, 20)}, {pop_at(2, 5, 15)}}));
    // An empty verdict is legal while the push overlaps it, not after.
    EXPECT_TRUE(stack_linearizable({{push_at(7, 0, 10)}, {pop_at({}, 5, 8)}}));
    EXPECT_FALSE(
        stack_linearizable({{push_at(7, 0, 10)}, {pop_at({}, 12, 15)}}));
    // A value popped twice, and a value never pushed.
    EXPECT_FALSE(stack_linearizable(
        {{push_at(3, 0, 1)}, {pop_at(3, 2, 9)}, {pop_at(3, 2, 9)}}));
    EXPECT_FALSE(stack_linearizable({{pop_at(4, 0, 1)}}));
}

// A stack whose pop hands out the element under the top (the top itself
// when it is alone).
class UnderTopStack {
public:
    bool push(Value v) {
        std::lock_guard<std::mutex> lock(mu_);
        items_.push_back(v);
        return true;
    }
    std::optional<Value> pop() {
        std::lock_guard<std::mutex> lock(mu_);
        if (items_.empty()) return std::nullopt;
        const std::size_t i = items_.size() >= 2 ? items_.size() - 2 : 0;
        const Value v = items_[i];
        items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
        return v;
    }

private:
    std::mutex mu_;
    std::vector<Value> items_;
};

TEST(Linearizability, CheckerRejectsTheUnderTopMutant) {
    HistoryRig<UnderTopStack> rig(
        [] { return std::make_unique<UnderTopStack>(); });
    std::uint64_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        if (!rig.run(seed)) ++rejected;
    }
    EXPECT_GT(rejected, 0u) << "the checker accepted every mutant history";
    std::printf("mutant: %llu of 200 histories rejected\n",
                static_cast<unsigned long long>(rejected));
}

}  // namespace
