// hazard.cpp — scan-and-free batching for HazardDomain.
#include "reclaim/hazard.hpp"

#include <algorithm>

namespace sec::reclaim {

HazardDomain::~HazardDomain() {
    // Contract: no Guard may outlive the domain, so every backlog entry is
    // freeable regardless of what the (dead) slots still say.
    const std::size_t live = sec::detail::tid_hwm();
    for (std::size_t i = 0; i < live; ++i) {
        lists_[i].counts.note_freed(detail::free_backlog(lists_[i].items));
    }
}

void HazardDomain::collect_hazards(std::vector<void*>& out) const {
    // The registry stores the mark seq_cst before a reader's first publish,
    // and the publish and its revalidation are seq_cst too. So a scan whose
    // seq_cst load of the mark misses a reader precedes that reader's
    // revalidation, which sees the unlink that preceded this scan's backlog
    // swap: the reader retries, and never holds what we free.
    const std::size_t bound = sec::detail::tid_hwm();
    out.reserve(bound * kSlotsPerThread);
    for (std::size_t t = 0; t < bound; ++t) {
        // One SlotBlock per cache line: start the next thread's line while
        // this one's seq_cst loads drain (the scan walks every live
        // thread's block on every kScanInterval-th retire).
        if (t + 1 < bound) sec::prefetch(&slots_[t + 1]);
        for (unsigned k = 0; k < kSlotsPerThread; ++k) {
            void* p = slots_[t].hp[k].load(std::memory_order_seq_cst);
            if (p != nullptr) out.push_back(p);
        }
    }
    std::sort(out.begin(), out.end());
}

void HazardDomain::scan(std::size_t id) {
    // Snapshot the backlog FIRST, then collect hazards. An entry retired
    // before the swap was already unreachable by then, so any hazard that
    // protects it was published (and validated) before the swap — the later
    // collection must see it. The reverse order would let a reader publish
    // a hazard between collection and swap and lose the race: drain_all()
    // running concurrently with active readers would free a node still in
    // use.
    std::vector<detail::RetiredPtr> work;
    {
        detail::SpinLockGuard lock(lists_[id].lock);
        work.swap(lists_[id].items);
    }
    std::vector<void*> hazards;
    collect_hazards(hazards);

    std::vector<detail::RetiredPtr> keep;
    std::uint64_t freed = 0;
    for (const detail::RetiredPtr& r : work) {
        if (std::binary_search(hazards.begin(), hazards.end(), r.p)) {
            keep.push_back(r);
        } else {
            r.deleter(r.p);
            ++freed;
        }
    }
    if (!keep.empty()) {
        detail::SpinLockGuard lock(lists_[id].lock);
        lists_[id].items.insert(lists_[id].items.end(), keep.begin(),
                                keep.end());
    }
    lists_[id].counts.note_freed(freed);
}

void HazardDomain::retire_erased(void* p, void (*deleter)(void*)) {
    const std::size_t id = sec::detail::tid();
    bool scan_now = false;
    {
        detail::SpinLockGuard lock(lists_[id].lock);
        lists_[id].counts.note_retired();  // before the entry is freeable
        lists_[id].items.push_back({p, deleter});
        if (++lists_[id].retires_since_scan >= kScanInterval) {
            lists_[id].retires_since_scan = 0;
            scan_now = true;
        }
    }
    if (scan_now) {
        (void)mark_.sample(lists_);  // before the scan: the backlog's peak
        scan(id);
    }
}

void HazardDomain::drain_all() {
    const std::size_t bound = sec::detail::tid_hwm();
    for (std::size_t id = 0; id < bound; ++id) scan(id);
}

}  // namespace sec::reclaim
