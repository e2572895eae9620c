// exec_worker_pool.cpp — the ONE thread-construction site in the tree
// (scripts/check_thread_spawn.sh enforces it).
#include "exec/worker_pool.hpp"

#include <barrier>
#include <utility>

#include "core/common.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace sec::exec {

// ---- WorkerContext ---------------------------------------------------------

struct WorkerPool::Barrier {
    explicit Barrier(std::ptrdiff_t parties) : b(parties) {}
    std::barrier<> b;
};

void WorkerContext::sync() { pool_->barrier_->b.arrive_and_wait(); }

void WorkerContext::counters_restart() {
    if (perf_ != nullptr) perf_->start();  // start() = reset + enable
}

// ---- WorkerPool ------------------------------------------------------------

WorkerPool::WorkerPool(unsigned workers, PoolOptions opts)
    : workers_(workers),
      opts_(opts),
      plan_((opts.topology != nullptr ? *opts.topology
                                      : topo::Topology::system())
                .plan(opts.pin, workers, opts.plan_offset)),
      barrier_(std::make_unique<Barrier>(
          static_cast<std::ptrdiff_t>(workers) +
          (opts.coordinator_in_barrier ? 1 : 0))) {}

WorkerPool::~WorkerPool() { join(); }

int WorkerPool::planned_cpu(unsigned t) const noexcept {
    return t < plan_.size() ? plan_[t] : -1;
}

void WorkerPool::start(std::function<void(WorkerContext&)> body) {
    body_ = std::move(body);
    threads_.reserve(workers_);
    for (unsigned t = 0; t < workers_; ++t) {
        threads_.emplace_back([this, t] { worker_main(t); });
    }
}

void WorkerPool::sync() { barrier_->b.arrive_and_wait(); }

void WorkerPool::join() {
    for (auto& th : threads_) {
        if (th.joinable()) th.join();
    }
    threads_.clear();
}

void WorkerPool::run(unsigned workers, PoolOptions opts,
                     std::function<void(WorkerContext&)> body) {
    // No coordinating thread participates, so the barrier (if the body
    // syncs at all) is workers-only.
    opts.coordinator_in_barrier = false;
    WorkerPool pool(workers, opts);
    pool.start(std::move(body));
    pool.join();
}

void WorkerPool::worker_main(unsigned t) {
    WorkerContext ctx;
    ctx.index = t;
    ctx.pool_ = this;

#if defined(__linux__)
    if (t < plan_.size() && plan_[t] >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(plan_[t]), &set);
        // Best-effort: a container that refuses affinity (restricted
        // cpuset, seccomp) leaves the worker unpinned, not the run failed.
        if (::sched_setaffinity(0, sizeof set, &set) == 0) ctx.cpu = plan_[t];
    }
#endif

    // Register with the thread registry up front: slot assignment must not
    // land inside a measured span, and per-thread counter slots (sharded
    // stacks, stats) key off this id.
    (void)sec::detail::tid();

    PerfGroup perf;
    if (opts_.counters && perf.open()) {
        ctx.perf_ = &perf;
        perf.start();
    }

    body_(ctx);

    if (ctx.perf_ != nullptr) {
        const PerfSample sample = perf.stop_and_read();
        const std::lock_guard<std::mutex> lock(totals_mu_);
        totals_.add(sample);
    }
}

}  // namespace sec::exec
