// exec/placement.hpp — the per-thread placement note the exec layer leaves
// for lower layers. A WorkerPool worker that was successfully pinned
// publishes where it runs ({cpu, package, core, L3 domain}); anything
// beneath the pool can read it without depending on the pool or the
// topology parser. Deliberately tiny, so it must pull in nothing.
#pragma once

namespace sec::exec {

// Where the calling thread is pinned. All fields are -1 for an unpinned
// thread (no policy, pin refused by the kernel, or a thread the exec layer
// never saw) — consumers must treat -1 as "fall back to tid hashing".
struct ThreadPlacement {
    int cpu = -1;      // OS logical cpu id
    int package = -1;  // physical package (socket) index, dense
    int core = -1;     // physical core index, dense across the machine
    int l3 = -1;       // L3 cache domain index, dense

    bool pinned() const noexcept { return cpu >= 0; }
};

// The calling thread's placement. Set by sec::exec::WorkerPool when a pin
// policy is active and the affinity call succeeded; default elsewhere.
const ThreadPlacement& this_thread_placement() noexcept;

namespace detail {
// Mutable access for the worker preamble (exec_worker_pool.cpp only).
ThreadPlacement& mutable_thread_placement() noexcept;
}  // namespace detail

}  // namespace sec::exec
