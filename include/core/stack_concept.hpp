// core/stack_concept.hpp — AnyStack, the type-erased container handle the
// registry and the secbench scenario driver work in terms of. The static
// contract it erases is the shape-parameterized ConcurrentContainer concept
// (core/container_concept.hpp); the class keeps its historical name, and
// `shape()` carries the erased type's kShape trait to runtime consumers
// (secbench --list, the net STATS frame).
//
// AnyStack keeps virtual dispatch OFF the measured hot path: the Model
// interface erases whole *phases* (prefill / timed mixed loop / fixed-op
// loop), not individual operations. A worker thread crosses the virtual
// boundary once per phase and then runs a loop that was instantiated against
// the concrete stack type (see the phase_* templates in workload/runner.hpp),
// so push/pop/peek inline exactly as they do when the phase is called
// directly (`secbench micro` compares the two). The per-op virtuals below
// exist for tests and low-rate use, never for measurement loops.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/config.hpp"
#include "core/container_concept.hpp"
#include "core/op_mix.hpp"

namespace sec {

namespace bench {
class LatencyHistogram;  // workload/histogram.hpp
}

// Per-worker inputs of one phase. Each phase seeds its own PRNG so phases
// are independently reproducible and reorderable across scenarios.
struct PhaseArgs {
    std::uint64_t seed = 1;
    std::size_t value_range = std::size_t{1} << 20;
    OpMix mix = kUpdateHeavy;
};

// Per-lane inputs of the open-loop service phases (workload/service.hpp).
// A producer lane replays `schedule` — ns offsets from `epoch`, ascending —
// pushing each request stamped with its *scheduled* arrival offset as the
// value; a consumer charges completion minus scheduled arrival, so a
// request that sat behind a stalled combiner (or a producer that fell
// behind its own schedule) is billed its full queueing delay, not just the
// pop in flight. That accounting is what makes the harness free of
// coordinated omission.
struct ServeProduceArgs {
    const std::uint64_t* schedule = nullptr;  // sorted ns offsets from epoch
    std::size_t count = 0;
    std::chrono::steady_clock::time_point epoch{};
};

struct ServeConsumeArgs {
    std::chrono::steady_clock::time_point epoch{};
    // Deterministic fault injection (tests): one spin-stall of `stall_ns`
    // after this consumer's `stall_after_op`-th successful pop. stall_ns ==
    // 0 disables. The stall sits OUTSIDE the timed pop, so it shows up in
    // the arrival-to-completion (sojourn) histogram of every backed-up
    // request but never in the per-op service-time histogram — the
    // coordinated-omission proof in tests/service_test.cpp rests on that.
    std::uint64_t stall_after_op = 0;
    std::uint64_t stall_ns = 0;
};

class AnyStack {
public:
    // Every erased stack trades in 64-bit values (what the harness pushes).
    using value_type = std::uint64_t;

    class Model {
    public:
        virtual ~Model() = default;

        // Per-op entry points (tests / setup / teardown — not measurement).
        virtual bool push(value_type v) = 0;
        virtual std::optional<value_type> pop() = 0;
        virtual std::optional<value_type> peek() = 0;

        // The erased type's kShape trait (ContainerShape); drives the net
        // STATS frame and secbench shape checks.
        virtual ContainerShape shape() const = 0;

        // Phase entry points: one virtual call, then a concrete-typed loop.
        virtual void prefill(std::size_t count, const PhaseArgs& args) = 0;
        virtual std::uint64_t mixed_until(const std::atomic<bool>& stop,
                                          const PhaseArgs& args) = 0;
        virtual std::uint64_t mixed_ops(std::uint64_t count,
                                        const PhaseArgs& args) = 0;
        virtual std::uint64_t timed_until(const std::atomic<bool>& stop,
                                          const PhaseArgs& args,
                                          bench::LatencyHistogram& hist) = 0;
        // Open-loop service lanes (workload/service.hpp): one virtual call
        // per lane, then the concrete-typed produce/consume loop.
        virtual std::uint64_t serve_produce(const ServeProduceArgs& args) = 0;
        virtual std::uint64_t serve_consume(const std::atomic<bool>& stop,
                                            const ServeConsumeArgs& args,
                                            bench::LatencyHistogram& sojourn,
                                            bench::LatencyHistogram& service) = 0;

        // Degree counters when the concrete type maintains them (SecStack
        // and SecQueue with Config::collect_stats).
        virtual bool has_stats() const { return false; }
        virtual StatsSnapshot stats() const { return {}; }
    };

    AnyStack() = default;
    explicit AnyStack(std::unique_ptr<Model> model) : model_(std::move(model)) {}

    explicit operator bool() const noexcept { return model_ != nullptr; }

    bool push(value_type v) { return model_->push(v); }
    std::optional<value_type> pop() { return model_->pop(); }
    std::optional<value_type> peek() { return model_->peek(); }
    ContainerShape shape() const { return model_->shape(); }

    void prefill(std::size_t count, const PhaseArgs& args) {
        model_->prefill(count, args);
    }
    std::uint64_t mixed_until(const std::atomic<bool>& stop,
                              const PhaseArgs& args) {
        return model_->mixed_until(stop, args);
    }
    std::uint64_t mixed_ops(std::uint64_t count, const PhaseArgs& args) {
        return model_->mixed_ops(count, args);
    }
    std::uint64_t timed_until(const std::atomic<bool>& stop,
                              const PhaseArgs& args,
                              bench::LatencyHistogram& hist) {
        return model_->timed_until(stop, args, hist);
    }
    std::uint64_t serve_produce(const ServeProduceArgs& args) {
        return model_->serve_produce(args);
    }
    std::uint64_t serve_consume(const std::atomic<bool>& stop,
                                const ServeConsumeArgs& args,
                                bench::LatencyHistogram& sojourn,
                                bench::LatencyHistogram& service) {
        return model_->serve_consume(stop, args, sojourn, service);
    }

    bool has_stats() const { return model_->has_stats(); }
    StatsSnapshot stats() const { return model_->stats(); }

private:
    std::unique_ptr<Model> model_;
};

}  // namespace sec
