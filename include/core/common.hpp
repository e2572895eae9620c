// core/common.hpp — small shared utilities: thread-id registry, cache-line
// alignment, a fast PRNG, and calibrated short spins.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

// Branch-shape hints for the measured hot paths (spine walk, aggregator
// execute loop, hazard validation). Only annotate branches whose skew is
// structural — overflow fallbacks, CAS retries, anchor invalidation — never
// ones whose skew is workload-dependent, so a hint can't pessimize an
// unanticipated mix. Macros (not [[likely]]) so the
// condition itself carries the hint into gcc/clang's block layout and they
// compose inside `while` headers.
#if defined(__GNUC__) || defined(__clang__)
#define SEC_LIKELY(x) (__builtin_expect(!!(x), 1))
#define SEC_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#else
#define SEC_LIKELY(x) (x)
#define SEC_UNLIKELY(x) (x)
#endif

namespace sec {

// Best-effort read prefetch into all cache levels. The pointer-chasing
// walks (Treiber spine, member-slot scans) know the next line one step
// before they dereference it; issuing the prefetch there overlaps the miss
// with the current iteration's work. A no-op where the builtin is missing —
// and always safe: prefetching an invalid address does not fault.
inline void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
    (void)p;
#endif
}

// Upper bound on concurrently-live threads the library supports. Thread ids
// are recycled when a thread exits, so this bounds *live* threads, not the
// total spawned over a process lifetime (gtest suites spawn thousands).
inline constexpr std::size_t kMaxThreads = 512;

inline constexpr std::size_t kCacheLineSize = 64;

// A T on its own cache line, so per-thread counters/slots never false-share.
template <class T>
struct alignas(kCacheLineSize) CacheAligned {
    T value{};

    CacheAligned() = default;
    explicit CacheAligned(T v) : value(std::move(v)) {}

    T& operator*() noexcept { return value; }
    const T& operator*() const noexcept { return value; }
    T* operator->() noexcept { return &value; }
    const T* operator->() const noexcept { return &value; }
};

// xoshiro256** — fast, high-quality, per-thread PRNG for workload draws.
class Xoshiro256 {
public:
    explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
        // splitmix64 expansion of the seed into the 256-bit state.
        std::uint64_t x = seed;
        for (auto& word : s_) {
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t next() noexcept {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    // Uniform draw in [0, bound). bound == 0 is treated as 1.
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        return bound > 1 ? next() % bound : 0;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }
    std::uint64_t s_[4];
};

namespace detail {

inline constexpr std::size_t kNoTid = ~std::size_t{0};

// The calling thread's id once it has one, else kNoTid. Constant-initialised,
// so reading it is one thread-pointer-relative load with no init guard.
inline constinit thread_local std::size_t t_tid = kNoTid;

// The registry's slow path (src/thread_registry.cpp): acquires the calling
// thread's id, caches it in t_tid, and releases both at thread exit.
std::size_t acquire_tid() noexcept;

// Process-wide small thread id in [0, kMaxThreads). Ids are recycled when the
// owning thread exits, so sequential test cases and bench phases reuse the low
// ids instead of marching past every per-thread array bound. A pop asks for
// it up to four times (the stack, the reclaimer's enter, exit and retire), so
// only a thread's first call leaves this function.
inline std::size_t tid() noexcept {
    const std::size_t id = t_tid;
    return SEC_LIKELY(id != kNoTid) ? id : acquire_tid();
}

// Monotonic high-water mark over every id tid() has handed out: all live
// thread ids are < tid_hwm(). Lets slot scans stop at the live prefix
// instead of walking kMaxThreads entries. The registry stores it seq_cst
// before a new thread's first tid() returns, and this load is seq_cst too,
// which is what lets the reclaimers' scans stop here (epoch_core.cpp,
// hazard.cpp). A freezer with a stale (smaller) view can only miss a
// BRAND-NEW thread's first operation, whose owner re-drives its own
// aggregator until served (the execute retry loop), and that owner's view
// includes itself by construction.
std::size_t tid_hwm() noexcept;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Spin-then-yield waiter: pure pause loops livelock on machines with fewer
// cores than threads (the combiner never gets scheduled while its waiters
// burn their quanta), so fall back to yield after a short spin.
class Backoff {
public:
    void pause() noexcept {
        if (++spins_ >= kSpinLimit) {
            spins_ = 0;
            std::this_thread::yield();
        } else {
            cpu_relax();
        }
    }

private:
    static constexpr int kSpinLimit = 64;
    int spins_ = 0;
};

// Busy-wait roughly `ns` nanoseconds (used for the freezer backoff window and
// elimination rendezvous; precision beyond steady_clock granularity is not
// needed).
inline void spin_for_ns(std::uint64_t ns) noexcept {
    if (ns == 0) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < deadline) cpu_relax();
}

}  // namespace detail
}  // namespace sec
