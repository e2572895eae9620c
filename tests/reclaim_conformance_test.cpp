// reclaim_conformance_test.cpp — the typed contract every sec::reclaim
// scheme must honour: accounting snapshots never underflow under concurrent
// churn, drain_all() empties limbo once all protection is released (except
// the deliberately-leaky baseline), protected pointers survive a drain, even
// when a brand-new thread holds them, destruction frees everything, and a
// reclaimer-templated stack survives
// multi-threaded churn (run under TSan/ASan in CI, where a use-after-free
// or a premature free shows up as a race / heap error).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>  // std::this_thread::yield
#include <vector>

#include "exec/worker_pool.hpp"
#include "reclaim/reclaim.hpp"
#include "sec.hpp"
#include "workload/registry.hpp"

namespace {

namespace rc = sec::reclaim;

struct Probe {
    explicit Probe(std::atomic<std::uint64_t>& c) : counter(c) {}
    ~Probe() { counter.fetch_add(1, std::memory_order_relaxed); }
    std::atomic<std::uint64_t>& counter;
};

template <class R>
class ReclaimConformanceTest : public ::testing::Test {};

using AllReclaimers = ::testing::Types<rc::EpochDomain, rc::HazardDomain,
                                       rc::QsbrDomain, rc::LeakyDomain>;
TYPED_TEST_SUITE(ReclaimConformanceTest, AllReclaimers);

// retired == freed + limbo at every sampled instant (the Stats snapshot is
// taken in one call, so a concurrent free between two loads cannot make
// in_limbo() wrap to a huge value), and exactly at the end. The sampled
// limbo_hwm covers every snapshot's limbo and never exceeds retired.
TYPED_TEST(ReclaimConformanceTest, AccountingBalancesUnderChurn) {
    using R = TypeParam;
    R domain;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 5000;

    std::atomic<bool> done{false};
    sec::exec::PoolOptions wo;
    wo.coordinator_in_barrier = false;
    sec::exec::WorkerPool sampler(1, wo);
    sampler.start([&domain, &done](sec::exec::WorkerContext&) {
        while (!done.load(std::memory_order_relaxed)) {
            const rc::Stats s = domain.stats();
            ASSERT_LE(s.freed, s.retired);
            ASSERT_LE(s.in_limbo(), s.retired);  // no wrap-around monster
            ASSERT_LE(s.in_limbo(), s.limbo_hwm);
        }
    });

    sec::exec::WorkerPool workers(kThreads, wo);
    workers.start([&domain](sec::exec::WorkerContext&) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            {
                typename R::Guard g(domain);
                domain.retire(new std::uint64_t(i));
            }
            domain.quiesce();
        }
        domain.offline();
    });
    workers.join();
    done.store(true, std::memory_order_relaxed);
    sampler.join();

    const rc::Stats s = domain.stats();
    EXPECT_EQ(s.retired, kThreads * kPerThread);
    EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    EXPECT_GT(s.limbo_hwm, 0u);
    EXPECT_LE(s.limbo_hwm, s.retired);
    if constexpr (R::kDrainsOnDemand) {
        // The amortised path must reclaim during the run, not defer
        // everything to destruction.
        EXPECT_GT(s.freed, 0u);
    } else {
        EXPECT_EQ(s.freed, 0u);  // leaky: nothing freed before the dtor
    }
}

TYPED_TEST(ReclaimConformanceTest, DrainAllEmptiesLimboOnceQuiet) {
    using R = TypeParam;
    R domain;
    constexpr std::uint64_t kCount = 100;
    for (std::uint64_t i = 0; i < kCount; ++i) {
        domain.retire(new std::uint64_t(i));
    }
    domain.drain_all();
    const rc::Stats s = domain.stats();
    EXPECT_EQ(s.retired, kCount);
    if constexpr (R::kDrainsOnDemand) {
        EXPECT_EQ(s.in_limbo(), 0u);
        EXPECT_EQ(s.freed, kCount);
    } else {
        EXPECT_EQ(s.freed, 0u);
        EXPECT_EQ(s.in_limbo(), kCount);
    }
}

// A pointer the calling thread still protects survives drain_all(); once
// protection is released, the next drain reclaims it.
TYPED_TEST(ReclaimConformanceTest, ProtectedPointerSurvivesDrain) {
    using R = TypeParam;
    std::atomic<std::uint64_t> destroyed{0};
    R domain;
    std::atomic<Probe*> src{new Probe(destroyed)};
    domain.quiesce();  // QSBR: the thread is online while it holds refs
    {
        typename R::Guard g(domain);
        Probe* p = g.protect(0u, src);
        ASSERT_NE(p, nullptr);
        src.store(nullptr, std::memory_order_release);  // unlink
        domain.retire(p);
        domain.drain_all();
        EXPECT_EQ(destroyed.load(), 0u) << "freed while still protected";
    }
    domain.quiesce();  // QSBR: a quiescent point after dropping the ref
    domain.offline();
    domain.drain_all();
    if constexpr (R::kDrainsOnDemand) {
        EXPECT_EQ(destroyed.load(), 1u);
    } else {
        EXPECT_EQ(destroyed.load(), 0u);  // leaky frees at destruction only
    }
}

// The scans stop at tid_hwm(). A thread whose id no thread held before the
// domain was built must still be seen: the node it protects survives a
// drain_all() until it lets go. Pool threads first park on every free id
// below the mark, and the registry hands out the lowest free id, so the
// first thread that gets one at or above the mark is brand new.
TYPED_TEST(ReclaimConformanceTest, BrandNewThreadIsSeenByTheScans) {
    using R = TypeParam;
    (void)sec::detail::tid();  // the coordinator's id is below the mark
    std::atomic<std::uint64_t> destroyed{0};
    R domain;
    const std::size_t hwm = sec::detail::tid_hwm();
    // Each run raises the mark by one, and parks one thread per id below
    // it; under --gtest_repeat that would grow to hundreds of threads.
    if (hwm > 64) GTEST_SKIP() << "mark " << hwm << ": too many to park";
    std::atomic<Probe*> src{new Probe(destroyed)};

    enum : int { kSpawned, kParked, kProtecting };
    std::atomic<int> state{kSpawned};  // the latest thread's report
    std::atomic<std::size_t> new_id{0};
    std::atomic<bool> release{false};
    auto wait_release = [&release] {
        while (!release.load()) std::this_thread::yield();
    };
    sec::exec::PoolOptions wo;
    wo.coordinator_in_barrier = false;
    std::vector<std::unique_ptr<sec::exec::WorkerPool>> threads;
    do {
        state.store(kSpawned);
        threads.push_back(std::make_unique<sec::exec::WorkerPool>(1, wo));
        threads.back()->start([&](sec::exec::WorkerContext&) {
            const std::size_t id = sec::detail::tid();
            if (id < hwm) {
                state.store(kParked);
                wait_release();
                return;
            }
            new_id.store(id);
            domain.quiesce();  // QSBR: online before it takes a reference
            {
                typename R::Guard g(domain);
                ASSERT_NE(g.protect(0u, src), nullptr);
                state.store(kProtecting);
                wait_release();
            }
            domain.quiesce();
            domain.offline();
        });
        while (state.load() == kSpawned) std::this_thread::yield();
    } while (state.load() == kParked);
    EXPECT_GE(new_id.load(), hwm);

    domain.retire(src.exchange(nullptr));  // unlink, then retire
    domain.drain_all();
    EXPECT_EQ(destroyed.load(), 0u) << "freed under a new thread's guard";

    release.store(true);
    for (auto& t : threads) t->join();
    domain.drain_all();
    EXPECT_EQ(destroyed.load(), R::kDrainsOnDemand ? 1u : 0u);
}

TYPED_TEST(ReclaimConformanceTest, DestructionFreesEverything) {
    using R = TypeParam;
    std::atomic<std::uint64_t> destroyed{0};
    constexpr std::uint64_t kCount = 1000;
    {
        R domain;
        for (std::uint64_t i = 0; i < kCount; ++i) {
            domain.retire(new Probe(destroyed));
        }
    }
    EXPECT_EQ(destroyed.load(), kCount);
}

// Multi-threaded churn through a reclaimer-templated stack: values must be
// conserved, and the sanitizers see every dereference the scheme allows.
// The per-iteration quiesce() + end-of-loop reclaim_offline() mirror what
// the workload runner's hooks do (QSBR's safety contract).
TYPED_TEST(ReclaimConformanceTest, StackChurnIsSafeAndConserving) {
    using R = TypeParam;
    using Value = std::uint64_t;
    R domain;
    sec::TreiberStack<Value, R> stack(16, domain);

    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kOps = 20000;
    auto tag = [](unsigned thread, std::uint32_t seq) {
        return (static_cast<Value>(thread + 1) << 32) | seq;
    };

    std::vector<std::vector<Value>> pushed(kThreads);
    std::vector<std::vector<Value>> popped(kThreads);
    sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
        std::uint32_t seq = 0;
        for (std::uint32_t i = 0; i < kOps; ++i) {
            stack.quiesce();
            const std::uint64_t r = rng.next_below(4);
            if (r == 0) {
                const Value v = tag(t, seq++);
                stack.push(v);
                pushed[t].push_back(v);
            } else if (r == 1) {
                (void)stack.peek();
            } else if (auto v = stack.pop()) {
                popped[t].push_back(*v);
            }
        }
        stack.reclaim_offline();
    });

    std::vector<Value> all_pushed, all_popped;
    for (unsigned t = 0; t < kThreads; ++t) {
        all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                          pushed[t].end());
        all_popped.insert(all_popped.end(), popped[t].begin(),
                          popped[t].end());
    }
    while (auto v = stack.pop()) all_popped.push_back(*v);
    stack.reclaim_offline();

    std::sort(all_pushed.begin(), all_pushed.end());
    std::sort(all_popped.begin(), all_popped.end());
    EXPECT_EQ(all_popped, all_pushed)
        << "value lost, duplicated, or invented under churn";

    domain.drain_all();
    const rc::Stats s = domain.stats();
    EXPECT_EQ(s.retired, s.freed + s.in_limbo());
}

// FIFO twin of the stack churn: the queues' dequeue paths are where the
// hazard discipline is hardest (MS protects the dummy AND its successor in
// two slots at once; SEC_Q's combiner walks a detached chain whose new
// dummy a later dequeuer may retire), so run the same conserve-under-churn
// soak through MsQueue and SecQueue on every scheme. This is what covers
// MS@hp and SEC_Q@ebr under TSan/ASan in CI.
template <class Q, class R>
void queue_churn(Q& queue) {
    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kOps = 20000;
    using Value = std::uint64_t;
    auto tag = [](unsigned thread, std::uint32_t seq) {
        return (static_cast<Value>(thread + 1) << 32) | seq;
    };

    std::vector<std::vector<Value>> pushed(kThreads);
    std::vector<std::vector<Value>> popped(kThreads);
    sec::exec::WorkerPool::run(kThreads, [&](sec::exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
        std::uint32_t seq = 0;
        for (std::uint32_t i = 0; i < kOps; ++i) {
            queue.quiesce();
            const std::uint64_t r = rng.next_below(4);
            if (r == 0) {
                const Value v = tag(t, seq++);
                queue.push(v);
                pushed[t].push_back(v);
            } else if (r == 1) {
                (void)queue.peek();
            } else if (auto v = queue.pop()) {
                popped[t].push_back(*v);
            }
        }
        queue.reclaim_offline();
    });

    std::vector<Value> all_pushed, all_popped;
    for (unsigned t = 0; t < kThreads; ++t) {
        all_pushed.insert(all_pushed.end(), pushed[t].begin(),
                          pushed[t].end());
        all_popped.insert(all_popped.end(), popped[t].begin(),
                          popped[t].end());
    }
    while (auto v = queue.pop()) all_popped.push_back(*v);
    queue.reclaim_offline();

    std::sort(all_pushed.begin(), all_pushed.end());
    std::sort(all_popped.begin(), all_popped.end());
    EXPECT_EQ(all_popped, all_pushed)
        << "value lost, duplicated, or invented under FIFO churn";
}

TYPED_TEST(ReclaimConformanceTest, QueueChurnIsSafeAndConserving) {
    using R = TypeParam;
    using Value = std::uint64_t;
    {
        R domain;
        sec::MsQueue<Value, R> ms(16, domain);
        queue_churn<decltype(ms), R>(ms);
        domain.drain_all();
        const rc::Stats s = domain.stats();
        EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    }
    {
        R domain;
        sec::Config cfg;
        cfg.max_threads = 16;
        sec::SecQueue<Value, R> sq(cfg, domain);
        queue_churn<decltype(sq), R>(sq);
        domain.drain_all();
        const rc::Stats s = domain.stats();
        EXPECT_EQ(s.retired, s.freed + s.in_limbo());
    }
}

// The registry's cross-product covers >= 4 schemes x >= 2 algorithms, every
// variant round-trips through the erased handle, and a handle of the right
// scheme is accepted where a mismatched one falls back to a private domain.
TEST(ReclaimRegistry, CrossProductRoundTripsAndBindsDomains) {
    auto& algo_reg = sec::bench::AlgorithmRegistry::instance();
    auto& rec_reg = sec::bench::ReclaimerRegistry::instance();
    ASSERT_GE(rec_reg.all().size(), 4u);
    unsigned combos = 0;
    for (const sec::bench::ReclaimerSpec* scheme : rec_reg.all()) {
        for (const char* base :
             {"TRB", "SEC", "EB", "TSI", "MS", "SEC_Q"}) {
            const sec::bench::AlgoSpec* spec =
                algo_reg.find_variant(base, scheme->name);
            if (spec == nullptr) continue;  // TSI@hp intentionally absent
            SCOPED_TRACE(std::string(base) + "@" + scheme->name);
            rc::DomainHandle domain = scheme->make_domain();
            EXPECT_EQ(domain.scheme(), scheme->name);
            sec::bench::StackParams params;
            params.threads = 2;
            params.domain = &domain;
            sec::AnyStack stack = spec->make(params);
            for (std::uint64_t v = 1; v <= 16; ++v) {
                EXPECT_TRUE(stack.push(v));
            }
            for (int i = 0; i < 16; ++i) {
                EXPECT_TRUE(stack.pop().has_value());
            }
            EXPECT_FALSE(stack.pop().has_value());
            // 16 pops through the external domain: retires must have landed
            // there (TSI retires only on dead-prefix detach, so >= 0).
            EXPECT_LE(domain.stats().freed, domain.stats().retired);
            ++combos;
        }
    }
    EXPECT_GE(combos, 4u * 2u);
    EXPECT_EQ(algo_reg.find("TSI@hp"), nullptr);  // blanket-only structure
}

}  // namespace
