// epoch_core.cpp — epoch advancement and limbo sweeping for the grace-period
// engine behind EpochDomain (EBR) and QsbrDomain.
#include "reclaim/epoch_core.hpp"

namespace sec::reclaim::detail {

EpochCore::~EpochCore() {
    // Every list that was ever appended to belongs to an id below the mark.
    const std::size_t live = sec::detail::tid_hwm();
    for (std::size_t i = 0; i < live; ++i) sweep(i, kInactive);
}

// Why the advance scans may stop at tid_hwm(). A thread T that takes a new
// id stores the mark (seq_cst, in the registry) before its first call here,
// and its slot store and epoch re-read below are seq_cst too. An advancer A
// loads the epoch, then the mark, both seq_cst. If A's mark is too small to
// cover T, A's mark load precedes T's mark store in the single total order
// of seq_cst operations, so A's epoch load e_A precedes T's re-read, and T
// settles on an epoch e_T >= e_A. Either e_T > e_A, and A's CAS from e_A
// fails or passes an epoch T never announced, or e_T == e_A, and A moves the
// epoch to e_T + 1, which a full scan would also have allowed (T's slot
// equals the epoch). Any later advancer reads e_T + 1 or more, and that load
// follows T's re-read, or T would not have settled on e_T; so it also loads
// a mark that covers T, sees the straggler and stops. At most one advance
// passes a thread the scan missed, and the sweep's `+ 2 <` bound already
// tolerates one.
void EpochCore::validated_announce(std::atomic<std::uint64_t>& slot) noexcept {
    // Announce the current epoch; re-read to close the window where the
    // global epoch moves between our load and our announcement (an advancing
    // peer that sampled our slot as inactive may already be sweeping).
    std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    for (;;) {
        slot.store(e, std::memory_order_seq_cst);
        const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
        if (now == e) break;
        e = now;
    }
}

void EpochCore::enter() noexcept {
    Reservation& res = reservations_[sec::detail::tid()];
    if (res.nesting++ > 0) return;
    validated_announce(res.epoch);
}

void EpochCore::exit() noexcept {
    Reservation& res = reservations_[sec::detail::tid()];
    if (--res.nesting > 0) return;
    res.epoch.store(kInactive, std::memory_order_release);
}

void EpochCore::quiescent() noexcept {
    Reservation& res = reservations_[sec::detail::tid()];
    if (res.epoch.load(std::memory_order_relaxed) == kInactive) {
        // Offline -> online needs the full validated announce: while
        // inactive we were invisible to advancement, exactly like an EBR
        // enter. Once online the slot only ever moves forward, so the
        // refresh below needs no validation loop.
        validated_announce(res.epoch);
        return;
    }
    res.epoch.store(global_epoch_.load(std::memory_order_acquire),
                    std::memory_order_seq_cst);
}

void EpochCore::set_offline() noexcept {
    reservations_[sec::detail::tid()].epoch.store(kInactive,
                                                  std::memory_order_release);
}

bool EpochCore::try_advance() noexcept {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    const std::size_t live = sec::detail::tid_hwm();  // after e; see above
    for (std::size_t i = 0; i < live; ++i) {
        const std::uint64_t v =
            reservations_[i].epoch.load(std::memory_order_seq_cst);
        if (v != kInactive && v != e) return false;  // straggler in an old epoch
    }
    std::uint64_t expected = e;
    global_epoch_.compare_exchange_strong(expected, e + 1,
                                          std::memory_order_acq_rel);
    return true;  // someone advanced past e (us or a peer)
}

bool EpochCore::any_active() const noexcept {
    const std::size_t live = sec::detail::tid_hwm();
    for (std::size_t i = 0; i < live; ++i) {
        if (reservations_[i].epoch.load(std::memory_order_seq_cst) !=
            kInactive) {
            return true;
        }
    }
    return false;
}

void EpochCore::sweep(std::size_t i, std::uint64_t limit) {
    LimboList& list = limbo_[i];
    Chunk* reclaim = nullptr;
    {
        SpinLockGuard lock(list.lock);
        if (limit == kInactive) {
            reclaim = list.head;
            list.head = list.tail = nullptr;
        } else {
            // Chunks are oldest-first and epochs non-decreasing, so detach
            // whole head chunks whose NEWEST entry already cleared the
            // grace period. The bound is strict (`+ 2 <`): the retire-time
            // epoch read may lag the global epoch by one on weakly-ordered
            // hardware, so two observed advances are not proof of a full
            // grace period for a stamp that was already stale.
            Chunk** out = &reclaim;
            while (list.head != nullptr && list.head->count > 0 &&
                   list.head->entries[list.head->count - 1].epoch + 2 <
                       limit) {
                Chunk* chunk = list.head;
                list.head = chunk->next;
                if (list.head == nullptr) list.tail = nullptr;
                chunk->next = nullptr;
                *out = chunk;
                out = &chunk->next;
            }
        }
    }
    std::uint64_t freed = 0;
    while (reclaim != nullptr) {
        Chunk* next = reclaim->next;
        for (std::uint32_t k = 0; k < reclaim->count; ++k) {
            reclaim->entries[k].deleter(reclaim->entries[k].p);
        }
        freed += reclaim->count;
        delete reclaim;
        reclaim = next;
    }
    list.counts.note_freed(freed);
}

void EpochCore::retire_erased(void* p, void (*deleter)(void*)) {
    const std::size_t id = sec::detail::tid();
    const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
    bool scan = false;
    {
        LimboList& list = limbo_[id];
        SpinLockGuard lock(list.lock);
        // Count before the entry is appended (and thus freeable by a
        // concurrent sweep); see RetireCounts::note_retired.
        list.counts.note_retired();
        if (list.tail == nullptr || list.tail->count == kChunkSize) {
            auto* chunk = new Chunk;  // default-init: skip zeroing entries[]
            if (list.tail != nullptr) {
                list.tail->next = chunk;
            } else {
                list.head = chunk;
            }
            list.tail = chunk;
        }
        list.tail->entries[list.tail->count++] = {p, deleter, epoch};
        if (++list.retires_since_scan >= kScanInterval) {
            list.retires_since_scan = 0;
            scan = true;
        }
    }
    if (scan) {
        (void)mark_.sample(limbo_);  // before the sweep: the backlog's peak
        try_advance();
        sweep(id, global_epoch_.load(std::memory_order_acquire));
    }
}

void EpochCore::drain_all() {
    // A handful of advance attempts walks the 3-epoch pipeline fully forward
    // when there are no (or only current-epoch) readers.
    for (int i = 0; i < 4; ++i) try_advance();
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    const bool quiescent = !any_active();
    const std::size_t live = sec::detail::tid_hwm();
    for (std::size_t i = 0; i < live; ++i) {
        sweep(i, quiescent ? kInactive : e);
    }
}

}  // namespace sec::reclaim::detail
