// exec/worker_pool.hpp — sec::exec::WorkerPool, the one place the workload,
// net, and test layers construct worker threads.
//
// Before this layer existed, fifteen files hand-rolled the same lifecycle:
// spawn std::thread, register a tid, announce QSBR quiescence in the loop,
// go offline at the phase boundary, join. Each copy drifted independently,
// and none of them knew which cpu the worker landed on — so placement
// claims ("SEC wins when workers share an L3") were unverifiable. The pool
// owns the whole preamble:
//
//   * tid registration — the worker touches sec::detail::tid() before the
//     body runs, so registration cost never lands inside a measured span
//   * affinity — a topo::PinPolicy plus the machine's Topology turns into
//     a per-worker cpu plan; pinning is best-effort (containers may refuse
//     sched_setaffinity) and a refused pin leaves the worker unpinned with
//     ctx.cpu == -1 rather than failing the run
//   * counters — with PoolOptions::counters, each worker carries a
//     perf_event group (cycles / instructions / LLC misses) that degrades
//     to nothing when the kernel refuses the syscall
//   * structured start/stop — an internal barrier replaces the per-harness
//     std::barrier: workers call ctx.sync(), the coordinating thread calls
//     pool.sync() when it holds a barrier slot
//
// The QSBR hook contract (quiesce per iteration, offline at phase end)
// also lives here — runner.hpp and the conformance tests used to carry
// duplicate copies.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/perf_counters.hpp"
#include "exec/topology.hpp"

namespace sec::exec {

// ---- the QSBR hook contract ------------------------------------------------

// Per-iteration quiescence announcement: the point where QSBR-backed
// containers tell their domain "this thread holds no references". Compiles
// to nothing for containers without the hook (CC/FC) and for reclaimers
// where quiesce() is a no-op (EBR/HP/leaky).
template <class C>
inline void quiesce_hook(C& c) {
    if constexpr (requires { c.quiesce(); }) c.quiesce();
}

// Phase-boundary withdrawal: a worker that stops operating must leave the
// QSBR online set or it blocks reclamation forever. Every worker body calls
// this on the way out of an operating phase.
template <class C>
inline void offline_hook(C& c) {
    if constexpr (requires { c.reclaim_offline(); }) c.reclaim_offline();
}

// ---- the pool --------------------------------------------------------------

class WorkerPool;

// Handed to each worker body. `index` is the worker's slot in [0, size);
// `cpu` is the OS cpu it was actually pinned to, -1 when unpinned (no
// policy, or the kernel refused the affinity call).
struct WorkerContext {
    unsigned index = 0;
    int cpu = -1;

    // Arrive at the pool barrier and wait for the other parties (all
    // workers, plus the coordinator when it holds a slot).
    void sync();

    // Zero the worker's counter group — call at the start of the measured
    // span so prefill cycles don't pollute the per-op arithmetic. No-op
    // when counters are off or unavailable.
    void counters_restart();

private:
    friend class WorkerPool;
    WorkerPool* pool_ = nullptr;
    PerfGroup* perf_ = nullptr;
};

struct PoolOptions {
    // Placement policy; kNone (the default, and the CI fallback) spawns
    // exactly the historical unpinned threads.
    topo::PinPolicy pin = topo::PinPolicy::kNone;
    // Topology to plan against; nullptr = Topology::system(). Tests inject
    // fixture topologies here.
    const topo::Topology* topology = nullptr;
    // Open a per-worker perf_event counter group (graceful no-op when the
    // kernel refuses).
    bool counters = false;
    // Whether the constructing thread holds a barrier slot: true for
    // coordinator-driven harnesses (prefill → sync → timed window), false
    // for worker-only rendezvous (churn drivers). Parties = workers (+1).
    bool coordinator_in_barrier = true;
    // Skip the first `plan_offset` slots of the policy's cpu order — two
    // pools sharing one machine stay disjoint by offsetting the second pool
    // by the first pool's size (perfbench's served_tcp starts its client
    // pool at 1, past the server's one-thread loop pool).
    unsigned plan_offset = 0;
};

class WorkerPool {
public:
    explicit WorkerPool(unsigned workers, PoolOptions opts = {});
    ~WorkerPool();  // joins if the caller didn't
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    // Spawn the workers, each running `body(ctx)`. Call at most once.
    void start(std::function<void(WorkerContext&)> body);

    // Coordinator's barrier arrival (requires coordinator_in_barrier).
    void sync();

    // Join all workers. Idempotent.
    void join();

    // start + join with no coordinator barrier slot — the one-shot shape
    // every "spawn N, let them rendezvous, wait" call site wants.
    static void run(unsigned workers, PoolOptions opts,
                    std::function<void(WorkerContext&)> body);
    static void run(unsigned workers,
                    std::function<void(WorkerContext&)> body) {
        run(workers, PoolOptions{}, std::move(body));
    }

    unsigned size() const noexcept { return workers_; }
    // The cpu the plan assigns worker t (-1 under kNone). What the worker
    // actually got is its ctx.cpu.
    int planned_cpu(unsigned t) const noexcept;

    // Counter totals across workers; meaningful after join(). any() is
    // false when every group failed to open (denied syscall, counters off).
    const PerfTotals& counters() const noexcept { return totals_; }

private:
    friend struct WorkerContext;  // ctx.sync() arrives at the pool barrier

    struct Barrier;  // std::barrier behind a firewall (non-movable member)

    void worker_main(unsigned t);

    unsigned workers_;
    PoolOptions opts_;
    std::vector<int> plan_;  // empty under kNone
    std::unique_ptr<Barrier> barrier_;
    std::vector<std::thread> threads_;
    std::function<void(WorkerContext&)> body_;
    std::mutex totals_mu_;
    PerfTotals totals_;
};

}  // namespace sec::exec
