// thread_registry.cpp — recycled small thread ids (see core/common.hpp).
#include "core/common.hpp"

#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace sec::detail {
namespace {

std::mutex g_mutex;
std::bitset<kMaxThreads> g_in_use;
std::atomic<std::size_t> g_hwm{0};  // see tid_hwm()

std::size_t acquire_id() {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
        if (!g_in_use.test(i)) {
            g_in_use.set(i);
            // seq_cst, and before the id is returned: a reclaimer scan that
            // loads a mark too small to cover this thread must have loaded
            // it before this thread's first announcement (epoch_core.cpp).
            if (i + 1 > g_hwm.load(std::memory_order_relaxed)) {
                g_hwm.store(i + 1, std::memory_order_seq_cst);
            }
            return i;
        }
    }
    std::fprintf(stderr,
                 "sec: more than %zu live threads; raise sec::kMaxThreads\n",
                 kMaxThreads);
    std::abort();
}

void release_id(std::size_t id) noexcept {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_in_use.reset(id);
}

struct TidHolder {
    std::size_t id = acquire_id();
    TidHolder() { t_tid = id; }
    ~TidHolder() {
        release_id(id);
        t_tid = kNoTid;
    }
};

}  // namespace

std::size_t acquire_tid() noexcept {
    thread_local TidHolder holder;
    return holder.id;
}

std::size_t tid_hwm() noexcept {
    return g_hwm.load(std::memory_order_seq_cst);
}

}  // namespace sec::detail
