// reclaim/epoch.hpp — EpochDomain: DEBRA-style epoch-based reclamation (the
// paper's §4 scheme), refitted behind the sec::reclaim interface.
//
// A Guard brackets every read-side critical section: enter announces the
// current epoch, exit withdraws the announcement. Retired nodes are stamped
// with the epoch at retire time and freed once the global epoch has advanced
// two steps past it (no reader can still hold a reference). Epoch
// advancement is amortised into retire(), so frees keep pace with retires
// during a run rather than piling up until destruction — memory stays
// bounded under churn, which the `reclamation` scenario makes observable.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "reclaim/epoch_core.hpp"
#include "reclaim/reclaimer.hpp"

namespace sec::reclaim {

class EpochDomain {
public:
    static constexpr std::string_view kName = "ebr";
    static constexpr bool kBlanketProtection = true;
    static constexpr bool kDrainsOnDemand = true;

    // Reader-side critical section (nestable): BlanketGuard's free
    // traversal hooks plus the epoch announcement bracketing.
    class Guard : public detail::BlanketGuard<EpochDomain> {
    public:
        explicit Guard(EpochDomain& d) noexcept : BlanketGuard(d) {
            domain().enter();
        }
        ~Guard() { domain().exit(); }
    };

    EpochDomain() = default;
    EpochDomain(const EpochDomain&) = delete;
    EpochDomain& operator=(const EpochDomain&) = delete;

    // Hand `p` to the domain; it is deleted once no epoch-protected reader
    // can still reach it. Callable with or without an active Guard.
    template <class T>
    void retire(T* p) {
        retire_erased(p, [](void* q) { delete static_cast<T*>(q); });
    }
    void retire_erased(void* p, void (*deleter)(void*)) {
        core_.retire_erased(p, deleter);
    }

    void drain_all() { core_.drain_all(); }

    Stats stats() const noexcept { return core_.stats(); }

    // Epoch announcements carry the protection; the runner's quiescence
    // hooks have nothing to add.
    void quiesce() noexcept {}
    void offline() noexcept {}

    std::uint64_t epoch() const noexcept { return core_.epoch(); }

    // Prefer the Guard RAII wrapper. Nestable.
    void enter() noexcept { core_.enter(); }
    void exit() noexcept { core_.exit(); }

private:
    detail::EpochCore core_;
};

}  // namespace sec::reclaim
