// tests/container_checkers.hpp — shared element-accounting and
// order-checking helpers for every container test (semantics, stress, and
// the shape-generic conformance suite). One home instead of per-test
// copies, so the tag scheme and the conservation oracle cannot drift.
//
// Tag tokens: every element a test inserts is stamped (producer, seq) —
// producer in the high 32 bits (offset by one so a raw 0 can never alias a
// token), seq in the low 32. Conservation checks compare multisets of
// tokens; order checks read the fields back and reason about per-producer
// seq monotonicity, which is exactly the observable each shape promises:
//
//   * FIFO — a producer's k-th insert is enqueued (and therefore dequeued)
//     before its (k+1)-th, and any single observer's removals are a
//     subsequence of the total removal order, so per (observer, producer)
//     the seqs are strictly INCREASING. This holds even under concurrent
//     churn.
//   * LIFO — with all inserts completed first (two-phase: push, join,
//     drain), a producer's elements sit in the stack with larger seqs
//     nearer the top, so per (observer, producer) the drained seqs are
//     strictly DECREASING. (Under concurrent churn LIFO makes no
//     per-producer promise an observer could check locally — elimination
//     legally short-circuits pairs — which is why the order oracle for
//     stacks runs in the quiescent drain phase.)
//
// Order under churn is checked on short histories instead: the recorder and
// the Wing–Gong stack checker at the end of this file.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/common.hpp"
#include "exec/worker_pool.hpp"

namespace sec::testing {

using Value = std::uint64_t;

constexpr Value tag(unsigned producer, std::uint32_t seq) {
    return (static_cast<Value>(producer + 1) << 32) | seq;
}

constexpr unsigned tag_producer(Value v) {
    return static_cast<unsigned>(v >> 32) - 1;
}

constexpr std::uint32_t tag_seq(Value v) {
    return static_cast<std::uint32_t>(v);
}

// Reclamation announcements come from sec::exec::quiesce_hook /
// offline_hook — the same requires-guarded helpers WorkerPool and the
// workload runner use, so the QSBR contract (quiesce between operations,
// offline at thread exit; see reclaim/qsbr.hpp) is stated in exactly one
// place. Flat-combining containers have neither hook and compile to
// no-ops.

// Everything a churn run observed, in observation order. `popped[c]` is
// consumer c's removals in its local order; `drained` is the post-join
// single-threaded sweep that empties the container.
struct ChurnResult {
    std::vector<std::vector<Value>> pushed;
    std::vector<std::vector<Value>> popped;
    std::vector<Value> drained;
};

// Balanced random churn: `threads` workers each run `ops_per_thread`
// iterations flipping a fair coin between push(tag(t, seq++)) and pop,
// recording what they saw; afterwards one thread drains the remainder.
template <class C>
ChurnResult churn(C& container, unsigned threads,
                  std::uint32_t ops_per_thread) {
    ChurnResult r;
    r.pushed.resize(threads);
    r.popped.resize(threads);
    exec::WorkerPool::run(threads, [&](exec::WorkerContext& wc) {
        const unsigned t = wc.index;
        sec::Xoshiro256 rng((t + 1) * 0x9E3779B97F4A7C15ull);
        std::uint32_t seq = 0;
        auto& mine_pushed = r.pushed[t];
        auto& mine_popped = r.popped[t];
        mine_pushed.reserve(ops_per_thread);
        mine_popped.reserve(ops_per_thread);
        for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
            exec::quiesce_hook(container);
            if (rng.next_below(2) == 0) {
                const Value v = tag(t, seq++);
                container.push(v);
                mine_pushed.push_back(v);
            } else if (auto v = container.pop()) {
                mine_popped.push_back(*v);
            }
        }
        exec::offline_hook(container);
    });
    while (auto v = container.pop()) r.drained.push_back(*v);
    return r;
}

// Multiset equality of two observation sets: every inserted token came out
// exactly once — no loss, no duplication, no invention.
inline void expect_same_multiset(std::vector<Value> inserted,
                                 std::vector<Value> removed) {
    std::sort(inserted.begin(), inserted.end());
    std::sort(removed.begin(), removed.end());
    ASSERT_EQ(removed.size(), inserted.size());
    EXPECT_EQ(removed, inserted)
        << "value lost, duplicated, or invented under churn";
}

inline void expect_conserved(const ChurnResult& r) {
    std::vector<Value> all_pushed;
    std::vector<Value> all_popped;
    for (const auto& p : r.pushed) {
        all_pushed.insert(all_pushed.end(), p.begin(), p.end());
    }
    for (const auto& p : r.popped) {
        all_popped.insert(all_popped.end(), p.begin(), p.end());
    }
    all_popped.insert(all_popped.end(), r.drained.begin(), r.drained.end());
    expect_same_multiset(std::move(all_pushed), std::move(all_popped));
}

// One observer's removal sequence, checked per producer for strict seq
// monotonicity in the given direction. `who` labels the failure.
inline void expect_per_producer_monotonic(const std::vector<Value>& removals,
                                          unsigned producers, bool increasing,
                                          const char* who) {
    // last seen seq per producer, offset by one so 0 means "none yet".
    std::vector<std::uint64_t> last(producers, 0);
    for (Value v : removals) {
        const unsigned p = tag_producer(v);
        ASSERT_LT(p, producers) << who << ": alien token " << v;
        const std::uint64_t seq = std::uint64_t{tag_seq(v)} + 1;
        if (last[p] != 0) {
            if (increasing) {
                EXPECT_GT(seq, last[p])
                    << who << ": producer " << p << " seq " << (seq - 1)
                    << " observed after seq " << (last[p] - 1)
                    << " — FIFO order violated";
            } else {
                EXPECT_LT(seq, last[p])
                    << who << ": producer " << p << " seq " << (seq - 1)
                    << " observed after seq " << (last[p] - 1)
                    << " — LIFO order violated";
            }
        }
        last[p] = seq;
    }
}

// ---- linearizability ------------------------------------------------------
//
// Short concurrent histories, checked against a sequential stack by
// Wing–Gong search. A thread records each operation it completes with its
// invoke and response times (steady_clock ns, taken just before the call
// and just after it returns). The checker then looks for a total order of
// all operations that keeps every thread's program order, keeps real-time
// order (an op that responded before another was invoked comes first), and
// replays on a sequential stack with the recorded results.

enum class LinOp : std::uint8_t { kPush, kPop };

struct LinEvent {
    LinOp op;
    bool has_value;  // push: always; pop: false when it reported empty
    Value value;
    std::uint64_t invoke_ns;
    std::uint64_t response_ns;
};

// One thread's completed operations, in program order.
using ThreadHistory = std::vector<LinEvent>;

inline std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

template <class C>
void recorded_push(C& container, ThreadHistory& h, Value v) {
    const std::uint64_t t0 = steady_ns();
    container.push(v);
    h.push_back({LinOp::kPush, true, v, t0, steady_ns()});
}

template <class C>
void recorded_pop(C& container, ThreadHistory& h) {
    const std::uint64_t t0 = steady_ns();
    const std::optional<Value> v = container.pop();
    h.push_back({LinOp::kPop, v.has_value(), v.value_or(0), t0, steady_ns()});
}

// Wing–Gong search over at most 64 operations, memoized on (set of
// linearized ops, stack contents): a state that failed once fails again,
// whatever order reached it.
class StackLinearizabilityChecker {
public:
    explicit StackLinearizabilityChecker(
        const std::vector<ThreadHistory>& threads) {
        for (const ThreadHistory& h : threads) {
            for (std::size_t i = 0; i < h.size(); ++i) {
                // Program order: an op waits for its thread's previous one.
                prev_.push_back(i == 0 ? -1 : static_cast<int>(ops_.size()) - 1);
                ops_.push_back(h[i]);
            }
        }
    }

    bool linearizable() {
        if (ops_.size() > 64) {
            ADD_FAILURE() << "history of " << ops_.size()
                          << " ops: the search tracks at most 64";
            return false;
        }
        all_ = ops_.size() == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << ops_.size()) - 1;
        failed_.clear();
        std::vector<Value> stack;
        return search(0, stack);
    }

private:
    struct State {
        std::uint64_t done;
        std::vector<Value> stack;
        bool operator==(const State&) const = default;
    };
    struct StateHash {
        std::size_t operator()(const State& s) const noexcept {
            std::size_t h = std::hash<std::uint64_t>{}(s.done);
            for (Value v : s.stack) {
                h ^= std::hash<Value>{}(v) + 0x9E3779B97F4A7C15ull + (h << 6) +
                     (h >> 2);
            }
            return h;
        }
    };

    bool search(std::uint64_t done, std::vector<Value>& stack) {
        if (done == all_) return true;
        const std::size_t n = ops_.size();
        State key{done, stack};
        if (failed_.count(key) != 0) return false;
        // An op may go next only if no pending op responded before it was
        // invoked.
        std::uint64_t first_response = ~std::uint64_t{0};
        for (std::size_t i = 0; i < n; ++i) {
            if ((done >> i & 1) == 0) {
                first_response = std::min(first_response, ops_[i].response_ns);
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            const LinEvent& e = ops_[i];
            if ((done >> i & 1) != 0 || e.invoke_ns > first_response) continue;
            if (prev_[i] >= 0 && (done >> prev_[i] & 1) == 0) continue;
            const std::uint64_t next = done | std::uint64_t{1} << i;
            if (e.op == LinOp::kPush) {
                stack.push_back(e.value);
                const bool ok = search(next, stack);
                stack.pop_back();
                if (ok) return true;
            } else if (!e.has_value) {
                if (stack.empty() && search(next, stack)) return true;
            } else if (!stack.empty() && stack.back() == e.value) {
                stack.pop_back();
                const bool ok = search(next, stack);
                stack.push_back(e.value);
                if (ok) return true;
            }
        }
        failed_.insert(std::move(key));
        return false;
    }

    std::vector<LinEvent> ops_;
    std::vector<int> prev_;
    std::uint64_t all_ = 0;  // the mask with every op linearized
    std::unordered_set<State, StateHash> failed_;
};

inline bool stack_linearizable(const std::vector<ThreadHistory>& threads) {
    return StackLinearizabilityChecker(threads).linearizable();
}

// The history, one line per op, times relative to the earliest invoke —
// what a failing check prints.
inline std::string describe(const std::vector<ThreadHistory>& threads) {
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const ThreadHistory& h : threads) {
        for (const LinEvent& e : h) t0 = std::min(t0, e.invoke_ns);
    }
    std::ostringstream out;
    for (std::size_t t = 0; t < threads.size(); ++t) {
        for (const LinEvent& e : threads[t]) {
            out << "  t" << t << " [" << (e.invoke_ns - t0) << ", "
                << (e.response_ns - t0) << "] "
                << (e.op == LinOp::kPush ? "push " : "pop -> ");
            if (e.has_value) {
                out << e.value;
            } else {
                out << "empty";
            }
            out << "\n";
        }
    }
    return out.str();
}

}  // namespace sec::testing
