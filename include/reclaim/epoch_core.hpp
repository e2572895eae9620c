// reclaim/epoch_core.hpp — the grace-period engine shared by EpochDomain
// (EBR) and QsbrDomain (quiescent-state).
//
// Both schemes are the same machine — a global epoch, one announcement slot
// per thread, per-thread limbo lists of epoch-stamped retired pointers, and
// amortised advancement/sweeping — differing only in *when* a thread
// announces. EBR brackets every read-side critical section (enter/exit);
// QSBR leaves threads announced ("online") across operations and refreshes
// the announcement at quiescent points (quiescent/set_offline), which is
// what makes its read side free. Keeping one core keeps the two schemes'
// advancement and accounting from diverging.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/common.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec::reclaim::detail {

class EpochCore {
public:
    static constexpr std::uint64_t kInactive = ~std::uint64_t{0};

    EpochCore() = default;
    ~EpochCore();

    EpochCore(const EpochCore&) = delete;
    EpochCore& operator=(const EpochCore&) = delete;

    void retire_erased(void* p, void (*deleter)(void*));

    // Reclaim everything that is provably unreachable; if no thread is
    // announced this drains the entire limbo backlog.
    void drain_all();

    Stats stats() const noexcept { return mark_.sample(limbo_); }

    std::uint64_t epoch() const noexcept {
        return global_epoch_.load(std::memory_order_acquire);
    }

    // EBR-style bracketed announcement (nestable; see EpochDomain::Guard).
    void enter() noexcept;
    void exit() noexcept;

    // QSBR-style sticky announcement. quiescent() brings an offline thread
    // online with the validated-announce dance, and merely refreshes the
    // announcement (one load + one store) for a thread already online.
    // set_offline() must be called when a thread stops operating on the
    // protected structures, or it blocks epoch advancement forever.
    void quiescent() noexcept;
    void set_offline() noexcept;

private:
    // Retires between amortised advance/sweep attempts on the owning thread.
    static constexpr std::uint32_t kScanInterval = 64;
    // Retired pointers per limbo chunk: amortises tracker allocation to one
    // per kChunkSize retires (a per-retire heap node would double the
    // allocation traffic of every pop in the benchmarked stacks).
    static constexpr std::uint32_t kChunkSize = 64;

    struct Retired {
        void* p;
        void (*deleter)(void*);
        std::uint64_t epoch;
    };

    // Entries are appended in retire order, so epochs within a chunk (and
    // across the chunk list, oldest chunk first) are non-decreasing.
    struct Chunk {
        Retired entries[kChunkSize];
        std::uint32_t count = 0;
        Chunk* next = nullptr;
    };

    struct alignas(kCacheLineSize) Reservation {
        std::atomic<std::uint64_t> epoch{kInactive};
        std::uint32_t nesting = 0;  // owned by the announcing thread
    };

    // The owner's retire path holds `lock` and writes only this line.
    struct alignas(kCacheLineSize) LimboList {
        std::atomic_flag lock = ATOMIC_FLAG_INIT;
        std::uint32_t retires_since_scan = 0;
        Chunk* head = nullptr;  // oldest
        Chunk* tail = nullptr;  // newest (append target)
        RetireCounts counts;
    };
    static_assert(sizeof(LimboList) == kCacheLineSize);

    // Both scans stop at tid_hwm(), loaded after the epoch; see
    // validated_announce for why a thread they miss is safe.
    bool try_advance() noexcept;
    bool any_active() const noexcept;
    // Announce epoch `e` with the store/re-read loop that closes the window
    // where the global epoch moves between load and announcement.
    void validated_announce(std::atomic<std::uint64_t>& slot) noexcept;
    // Free nodes in limbo_[i] with epoch+2 <= limit (limit==kInactive: all).
    void sweep(std::size_t i, std::uint64_t limit);

    // Read by every announcement, written once per advance: its line holds
    // nothing a retire or a guard writes.
    alignas(kCacheLineSize) std::atomic<std::uint64_t> global_epoch_{2};
    LimboMark mark_;
    Reservation reservations_[kMaxThreads];
    LimboList limbo_[kMaxThreads];
};

}  // namespace sec::reclaim::detail
