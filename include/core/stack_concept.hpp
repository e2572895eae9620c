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
    OpMix mix = kUpdateHeavy;
};

// Declared only for perfbench's pass-through Model (perfbench/src/
// served.cpp), which overrides and forwards Model::serve_produce/
// serve_consume. These, the two virtuals and AnyStack's two forwarders go
// with the next change to the benchmark (ROADMAP item 8).
struct ServeProduceArgs;
struct ServeConsumeArgs;

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
        // For perfbench's overrides only (see ServeProduceArgs above);
        // nothing in the library calls them.
        virtual std::uint64_t serve_produce(const ServeProduceArgs&) {
            return 0;
        }
        virtual std::uint64_t serve_consume(const std::atomic<bool>&,
                                            const ServeConsumeArgs&,
                                            bench::LatencyHistogram&,
                                            bench::LatencyHistogram&) {
            return 0;
        }

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
    // perfbench's pass-through Model calls these two (see ServeProduceArgs).
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
