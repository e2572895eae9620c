// reclaim/leaky.hpp — LeakyDomain: the no-op baseline that bounds the cost
// ceiling of reclamation.
//
// Readers pay nothing and retires only append to a per-thread backlog;
// nothing is freed until the domain is destroyed (at which point everything
// is, so ASan runs stay clean and the conformance suite can count
// destructors). drain_all() is deliberately a no-op: without any reader
// tracking there is never a moment mid-run when freeing is provably safe.
// Comparing any real scheme against this one isolates the price of safety:
// throughput above LeakyDomain is overhead, limbo growth below it is memory
// the scheme actually returned.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/common.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec::reclaim {

class LeakyDomain {
public:
    static constexpr std::string_view kName = "leak";
    static constexpr bool kBlanketProtection = true;
    static constexpr bool kDrainsOnDemand = false;

    using Guard = detail::BlanketGuard<LeakyDomain>;

    LeakyDomain() = default;
    ~LeakyDomain() {
        const std::size_t live = sec::detail::tid_hwm();
        for (std::size_t i = 0; i < live; ++i) {
            lists_[i].counts.note_freed(detail::free_backlog(lists_[i].items));
        }
    }

    LeakyDomain(const LeakyDomain&) = delete;
    LeakyDomain& operator=(const LeakyDomain&) = delete;

    template <class T>
    void retire(T* p) {
        retire_erased(p, [](void* q) { delete static_cast<T*>(q); });
    }

    void retire_erased(void* p, void (*deleter)(void*)) {
        const std::size_t id = sec::detail::tid();
        detail::SpinLockGuard lock(lists_[id].lock);
        lists_[id].counts.note_retired();
        lists_[id].items.push_back({p, deleter});
    }

    // Deliberate no-op; see the header comment.
    void drain_all() noexcept {}

    // Limbo only grows until destruction, so this sample of the mark is the
    // peak; there is no scan to take one.
    Stats stats() const noexcept { return mark_.sample(lists_); }

    void quiesce() noexcept {}
    void offline() noexcept {}

private:
    struct alignas(kCacheLineSize) RetiredList {
        std::atomic_flag lock = ATOMIC_FLAG_INIT;
        std::vector<detail::RetiredPtr> items;
        detail::RetireCounts counts;
    };
    static_assert(sizeof(RetiredList) == kCacheLineSize);

    detail::LimboMark mark_;
    RetiredList lists_[kMaxThreads];
};

}  // namespace sec::reclaim
