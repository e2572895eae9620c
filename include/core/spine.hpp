// core/spine.hpp — the lock-free Treiber spine shared by SecStack and
// TreiberStack: single-attempt push and multi-pop (SecStack's direct
// entry), the batched single-CAS chain push and multi-pop that retry them,
// reclaimer retirement, and teardown. Keeping it in one place keeps the
// structures from diverging.
//
// The pop/peek primitives take a reclaimer Guard (reclaim/reclaimer.hpp)
// rather than assuming EBR. Blanket guards (EBR/QSBR/leaky) compile to the
// plain walk; hazard-pointer guards additionally announce each node before
// it is dereferenced and revalidate the anchor: as long as `top` still
// equals the protected head, no node of the chain under it can have been
// popped — and spine nodes are never re-pushed after a pop — so the whole
// prefix is intact and the freshly-announced walker node was live when its
// hazard was published.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>

#include "core/common.hpp"

namespace sec::detail {

template <class V>
struct SpineNode {
    V value;
    SpineNode* next;
};

// One CAS linking the private chain bottom..chain above the top that
// `bottom->next` holds. False when `top` moved since that read: nothing was
// published, `bottom->next` now holds the current top, and the chain is
// still the caller's to retry or free. Pushes dereference no shared node,
// so they need no guard under any reclaimer.
template <class V>
bool spine_try_link(std::atomic<SpineNode<V>*>& top, SpineNode<V>* bottom,
                    SpineNode<V>* chain) {
    return top.compare_exchange_strong(bottom->next, chain,
                                       std::memory_order_release,
                                       std::memory_order_relaxed);
}

// One attempt to push v: false (and nothing published) when it lost a race.
template <class V>
bool spine_try_push(std::atomic<SpineNode<V>*>& top, const V& v) {
    auto* node = new SpineNode<V>{v, top.load(std::memory_order_relaxed)};
    if (spine_try_link(top, node, node)) return true;
    delete node;  // never published
    return false;
}

// Link vals[0..n) above the current top with a single CAS. vals[n-1] ends
// up topmost; within a batch the operations are concurrent, so any internal
// order is linearizable.
template <class V>
void spine_push_chain(std::atomic<SpineNode<V>*>& top, const V* vals,
                      std::size_t n) {
    SpineNode<V>* bottom = nullptr;
    SpineNode<V>* chain = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        chain = new SpineNode<V>{vals[i], chain};
        if (bottom == nullptr) bottom = chain;
    }
    bottom->next = top.load(std::memory_order_relaxed);
    // Under SEC only the K aggregator freezers and threads making their one
    // direct attempt race on `top`, and a thread that keeps losing moves to
    // its aggregator, so first-try success is the common case even at high
    // thread counts — that is the point of batching (paper §3).
    while (SEC_UNLIKELY(!spine_try_link(top, bottom, chain))) cpu_relax();
}

// One attempt to detach up to n nodes with a single CAS. Returns how many
// were popped — 0 when the spine was empty at the read of `top`, which is
// where an empty pop linearizes — or nullopt when `top` moved during the
// attempt and nothing was detached. `guard` must be a live Guard of the
// domain the spine's nodes retire into; slots 0 (anchor) and 1 (walker) of
// a hazard guard are used.
template <class V, class G>
std::optional<std::size_t> spine_try_pop_chain(
    std::atomic<SpineNode<V>*>& top, G& guard, V* out, std::size_t n) {
    SpineNode<V>* head = guard.protect(0u, top);
    if (head == nullptr) return 0;
    SpineNode<V>* end = head;
    std::size_t count = 0;
    while (end != nullptr && count < n) {
        SpineNode<V>* next = end->next;
        // Pull the line we will chase one iteration from now; the walk is
        // otherwise a serial load-to-load dependency chain and eats a full
        // miss per node on cold spines.
        if (next != nullptr) prefetch(next);
        ++count;
        end = next;
        if (end != nullptr && count < n) {
            // `end` is dereferenced next iteration: announce it, then
            // revalidate the anchor (no-ops for blanket guards).
            guard.publish(1u, end);
            if (SEC_UNLIKELY(!guard.validate(top, head))) return std::nullopt;
        }
    }
    SpineNode<V>* expected = head;
    if (SEC_UNLIKELY(!top.compare_exchange_strong(
            expected, end, std::memory_order_acq_rel,
            std::memory_order_acquire))) {
        return std::nullopt;
    }
    // The chain head..end is exclusively ours now; values are copied out
    // before each node is handed to the domain.
    SpineNode<V>* node = head;
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = node->value;
        SpineNode<V>* next = node->next;
        guard.domain().retire(node);
        node = next;
    }
    return count;
}

// Detach up to n nodes with a single successful CAS, retrying lost races;
// returns how many were popped.
template <class V, class G>
std::size_t spine_pop_chain(std::atomic<SpineNode<V>*>& top, G& guard, V* out,
                            std::size_t n) {
    for (;;) {
        if (const auto got = spine_try_pop_chain(top, guard, out, n)) {
            return *got;
        }
        cpu_relax();
    }
}

// Read the top value without detaching it; uses slot 0 of a hazard guard.
template <class V, class G>
std::optional<V> spine_peek(const std::atomic<SpineNode<V>*>& top, G& guard) {
    SpineNode<V>* head = guard.protect(0u, top);
    if (head == nullptr) return std::nullopt;
    return head->value;
}

// Teardown only: no concurrent access may remain.
template <class V>
void spine_destroy(std::atomic<SpineNode<V>*>& top) {
    SpineNode<V>* n = top.load(std::memory_order_relaxed);
    while (n != nullptr) {
        SpineNode<V>* next = n->next;
        delete n;
        n = next;
    }
    top.store(nullptr, std::memory_order_relaxed);
}

}  // namespace sec::detail
