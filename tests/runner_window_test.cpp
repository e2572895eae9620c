// runner_window_test.cpp — regression test for the measurement-window
// overshoot bias: a worker whose final op straddles the coordinator's stop
// store keeps working past the nominal window, and those ops are real work.
// The runners must divide by the workers' self-timed span (min begin to max
// end), not by the coordinator's sleep duration — dividing the overshoot
// ops by the short window used to inflate short-window throughput by a
// scheduling-dependent amount. A stack whose every op takes ~60 ms against
// a 10 ms nominal window makes the bias unmissable: the honest window is at
// least one op long. The latency and churn runners share the window, so
// they are pinned here too.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

#include "workload/any_runner.hpp"
#include "workload/histogram.hpp"
#include "workload/runner.hpp"

namespace sb = sec::bench;

namespace {

constexpr auto kOpDuration = std::chrono::milliseconds(60);

// Every op sleeps for kOpDuration; with a push-only mix and a window far
// shorter than one op, exactly the straddling op gets counted.
struct SlowOpStack {
    using value_type = std::uint64_t;
    static constexpr sec::ContainerShape kShape = sec::ContainerShape::lifo;
    bool push(value_type) {
        std::this_thread::sleep_for(kOpDuration);
        return true;
    }
    std::optional<value_type> pop() {
        std::this_thread::sleep_for(kOpDuration);
        return std::nullopt;
    }
    std::optional<value_type> peek() { return std::nullopt; }
};

sb::RunConfig slow_config() {
    sb::RunConfig cfg;
    cfg.threads = 1;
    cfg.duration = std::chrono::milliseconds(10);
    cfg.prefill = 0;
    cfg.mix = sec::kPushOnly;
    cfg.runs = 1;
    return cfg;
}

// RunResult exposes mops and total_ops; the window the runner divided by
// falls out as total_ops / mops (in µs).
double derived_window_us(const sb::RunResult& r) {
    EXPECT_GT(r.total_ops, 0u);
    EXPECT_GT(r.mops, 0.0);
    return static_cast<double>(r.total_ops) / r.mops;
}

// The op sleeps 60 ms; anything over 50 ms proves the divisor tracked the
// worker past the 10 ms nominal window (sleep_for never wakes early, so the
// only slack is in the surrounding clock reads).
constexpr double kMinHonestWindowUs = 50'000.0;

}  // namespace

TEST(RunnerWindow, ErasedRunnerChargesTheStraddlingOp) {
    const sb::RunResult r = sb::run_throughput_any(
        [] { return sb::erase_stack(std::make_unique<SlowOpStack>()); },
        slow_config());
    EXPECT_GE(derived_window_us(r), kMinHonestWindowUs);
}

// The op in flight when the window closes is timed and recorded, whole.
TEST(RunnerWindow, LatencyRunnerRecordsTheStraddlingOp) {
    sec::AnyStack stack = sb::erase_stack(std::make_unique<SlowOpStack>());
    const sb::LatencyHistogram h = sb::run_latency_any(stack, slow_config());
    EXPECT_GE(h.total(), 1u);
    EXPECT_GE(h.quantile_ns(0.50),
              static_cast<std::uint64_t>(
                  std::chrono::nanoseconds(kOpDuration).count()));
}

// Two 60 ms ops on one thread: divided by the worker's own span, the rate
// is at most 2 ops per 100 ms.
TEST(RunnerWindow, ChurnRunnerDividesByTheWorkersSpan) {
    sec::AnyStack stack = sb::erase_stack(std::make_unique<SlowOpStack>());
    const double mops = sb::run_churn_any(stack, 1, 2);
    EXPECT_GT(mops, 0.0);
    EXPECT_LE(mops, 2.0 / 100'000.0);
}
