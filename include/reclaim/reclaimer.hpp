// reclaim/reclaimer.hpp — the pluggable memory-reclamation interface.
//
// A Reclaimer is a domain that takes ownership of retired pointers and frees
// them once no reader can still hold a reference. Four implementations model
// the classic safety/latency/memory trade-off space:
//
//   EpochDomain  (epoch.hpp)  DEBRA-style EBR — the paper's §4 scheme
//   QsbrDomain   (qsbr.hpp)   quiescent-state; the workload runner announces
//                             quiescence at every iteration boundary
//   HazardDomain (hazard.hpp) per-thread hazard-pointer slots, scan-and-free
//   LeakyDomain  (leaky.hpp)  no-op baseline; frees only at destruction
//
// Readers protect themselves with the domain's nested Guard (RAII). Blanket
// schemes (EBR/QSBR/leaky) make every pointer reachable during the guard's
// lifetime safe to dereference; hazard pointers protect only pointers
// announced through the guard's protect()/publish() slots, which the shared
// spine primitives (core/spine.hpp) call on every traversal step. The
// kBlanketProtection flag lets structures whose traversals cannot announce
// per-node hazards (TsiStack's all-pool scan) reject non-blanket reclaimers
// at compile time.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace sec::reclaim {

// One consistent accounting snapshot, summed over per-thread counts. Each
// thread's `freed` is loaded before its `retired`, so `in_limbo()` can never
// wrap to a huge value the way two independently-loaded counters can when a
// free lands between the loads (detail::LimboMark).
struct Stats {
    std::uint64_t retired = 0;    // handed to retire() so far
    std::uint64_t freed = 0;      // deleters actually run
    std::uint64_t limbo_hwm = 0;  // sampled high-water mark of retired - freed

    std::uint64_t in_limbo() const noexcept { return retired - freed; }
};

template <class R>
concept Reclaimer =
    requires(R r, const R cr, R& ref, void* p, void (*deleter)(void*)) {
        typename R::Guard;
        requires std::constructible_from<typename R::Guard, R&>;
        { R::kName } -> std::convertible_to<std::string_view>;
        { R::kBlanketProtection } -> std::convertible_to<bool>;
        { R::kDrainsOnDemand } -> std::convertible_to<bool>;
        r.retire_erased(p, deleter);
        r.drain_all();
        r.quiesce();
        r.offline();
        { cr.stats() } -> std::same_as<Stats>;
    };

// Owns a private domain by default, or borrows an external one — the shared
// plumbing behind every stack's `(args...)` / `(args..., R&)` ctor pair.
template <class R>
class DomainRef {
public:
    DomainRef() : owned_(std::make_unique<R>()), domain_(owned_.get()) {}
    explicit DomainRef(R& d) noexcept : domain_(&d) {}

    R& operator*() const noexcept { return *domain_; }
    R* operator->() const noexcept { return domain_; }

private:
    std::unique_ptr<R> owned_;
    R* domain_;
};

// Type-erased owning handle over any Reclaimer — what the registry and the
// reclamation scenario pass around so one StackParams field can carry a
// domain of any scheme. get<R>() recovers the concrete domain (nullptr on
// scheme mismatch), which the per-variant stack factories rely on.
class DomainHandle {
public:
    DomainHandle() = default;
    DomainHandle(DomainHandle&& o) noexcept : ptr_(o.ptr_), ops_(o.ops_) {
        o.ptr_ = nullptr;
        o.ops_ = nullptr;
    }
    DomainHandle& operator=(DomainHandle&& o) noexcept {
        if (this != &o) {
            reset();
            ptr_ = o.ptr_;
            ops_ = o.ops_;
            o.ptr_ = nullptr;
            o.ops_ = nullptr;
        }
        return *this;
    }
    DomainHandle(const DomainHandle&) = delete;
    DomainHandle& operator=(const DomainHandle&) = delete;
    ~DomainHandle() { reset(); }

    template <Reclaimer R>
    static DomainHandle make() {
        DomainHandle h;
        h.ptr_ = new R();
        h.ops_ = ops_for<R>();
        return h;
    }

    explicit operator bool() const noexcept { return ptr_ != nullptr; }
    std::string_view scheme() const noexcept { return ops_->name; }
    Stats stats() const { return ops_->stats(ptr_); }
    void drain_all() const { ops_->drain(ptr_); }

    template <Reclaimer R>
    R* get() const noexcept {
        return (ops_ != nullptr && ops_->name == R::kName)
                   ? static_cast<R*>(ptr_)
                   : nullptr;
    }

private:
    struct Ops {
        std::string_view name;
        Stats (*stats)(void*);
        void (*drain)(void*);
        void (*destroy)(void*);
    };

    template <Reclaimer R>
    static const Ops* ops_for() {
        static const Ops ops{
            R::kName,
            [](void* p) { return static_cast<const R*>(p)->stats(); },
            [](void* p) { static_cast<R*>(p)->drain_all(); },
            [](void* p) { delete static_cast<R*>(p); },
        };
        return &ops;
    }

    void reset() noexcept {
        if (ptr_ != nullptr) ops_->destroy(ptr_);
        ptr_ = nullptr;
        ops_ = nullptr;
    }

    void* ptr_ = nullptr;
    const Ops* ops_ = nullptr;
};

namespace detail {

// Spin-then-yield lock guard for the per-thread limbo lists every domain
// keeps (uncontended except when drain_all sweeps foreign lists).
struct SpinLockGuard {
    explicit SpinLockGuard(std::atomic_flag& f) noexcept : flag(f) {
        sec::detail::Backoff backoff;
        while (flag.test_and_set(std::memory_order_acquire)) {
            backoff.pause();
        }
    }
    ~SpinLockGuard() { flag.clear(std::memory_order_release); }
    SpinLockGuard(const SpinLockGuard&) = delete;
    SpinLockGuard& operator=(const SpinLockGuard&) = delete;

    std::atomic_flag& flag;
};

// The read-side guard of every blanket-protection scheme: any pointer
// reachable while the guard lives is safe to dereference, so protect() is a
// plain load and publish()/validate() compile away. The single definition
// keeps the three blanket schemes from diverging; EpochDomain derives from
// it to add its enter/exit bracketing, QSBR and leaky use it as-is.
template <class D>
class BlanketGuard {
public:
    explicit BlanketGuard(D& d) noexcept : d_(d) {}
    BlanketGuard(const BlanketGuard&) = delete;
    BlanketGuard& operator=(const BlanketGuard&) = delete;

    D& domain() const noexcept { return d_; }

    template <class T>
    T* protect(unsigned /*slot*/, const std::atomic<T*>& src) const noexcept {
        return src.load(std::memory_order_acquire);
    }
    template <class T>
    void publish(unsigned /*slot*/, T* /*p*/) const noexcept {}
    template <class T>
    bool validate(const std::atomic<T*>& /*src*/,
                  T* /*expected*/) const noexcept {
        return true;
    }

private:
    D& d_;
};

// A retired pointer awaiting its deleter — the backlog entry of the domains
// that defer frees to scans or destruction (hazard, leaky).
struct RetiredPtr {
    void* p;
    void (*deleter)(void*);
};

// Run every deleter in `items` and clear it; returns how many were freed.
// The destructor contract behind it: no Guard outlives the domain, so every
// backlog entry is freeable unconditionally.
inline std::uint64_t free_backlog(std::vector<RetiredPtr>& items) {
    for (const RetiredPtr& r : items) r.deleter(r.p);
    const std::uint64_t n = items.size();
    items.clear();
    return n;
}

// Per-thread retire accounting, one mechanism for every scheme: each
// domain's per-thread list (LimboList, RetiredList) embeds one, on the line
// its retire path already holds locked, so a retire writes no shared line.
struct RetireCounts {
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};

    // The owner, under its list's lock, before the entry is appended and so
    // before any sweep can free it: freed must never be observable above
    // retired. One writer, so a plain load and store.
    void note_retired() noexcept {
        retired.store(retired.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }

    // Whoever ran the deleters: the owner's scan, or a drain_all() sweep
    // that may race it, hence the RMW (once per scan, on the owner's line).
    // The release pairs with LimboMark::sample's acquire of `freed`.
    void note_freed(std::uint64_t n) noexcept {
        if (n > 0) freed.fetch_add(n, std::memory_order_release);
    }
};

// The one-call Stats read over a domain's per-thread lists, and the sampled
// limbo high-water mark. sample() sums every list below tid_hwm() (all ids
// ever handed out are below it), reading each list's freed BEFORE its
// retired: the retires behind a list's freed count happen-before the
// release that published it, so the later-loaded retired is at least as
// large and no term of in_limbo() can wrap. Domains must not re-implement
// this read.
//
// limbo_hwm is the largest in_limbo() of those sums, taken at each
// amortised scan and at each stats(). It is sampled, not exact: it can read
// low by at most the retires since each live thread's last scan, i.e.
// kScanInterval x live threads, high by the frees that land while one sum
// walks the lists, and it never exceeds retired. LeakyDomain never scans,
// but its limbo only grows, so its stats() sample is the peak. The mark is
// the only domain-wide word a domain writes outside drains, so it sits on a
// line of its own.
class alignas(kCacheLineSize) LimboMark {
public:
    template <class List>
    Stats sample(const List* lists) const noexcept {
        Stats s;
        const std::size_t live = sec::detail::tid_hwm();
        for (std::size_t i = 0; i < live; ++i) {
            const RetireCounts& c = lists[i].counts;
            const std::uint64_t f = c.freed.load(std::memory_order_acquire);
            s.retired += c.retired.load(std::memory_order_acquire);
            s.freed += f;
        }
        std::uint64_t cur = hwm_.load(std::memory_order_relaxed);
        while (s.in_limbo() > cur &&
               !hwm_.compare_exchange_weak(cur, s.in_limbo(),
                                           std::memory_order_relaxed)) {
        }
        s.limbo_hwm = std::max(cur, s.in_limbo());
        return s;
    }

private:
    mutable std::atomic<std::uint64_t> hwm_{0};
};

}  // namespace detail
}  // namespace sec::reclaim
