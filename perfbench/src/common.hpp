// common.hpp — what every perfbench workload shares: the clock, the seeded
// input generators, value tags and the conservation ledger that checks them,
// and latency summaries.
//
// The seed is the only workload input. Op sequences, pushed tags and
// arrival schedules all derive from it through stream(seed, purpose, index),
// and the library only ever sees the generated values.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/worker_pool.hpp"
#include "workload/histogram.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

// Run `fn` on a short-lived pool thread. The prefill and the final drain
// go through one, so the coordinating thread never takes a sec thread id:
// workers then hold ids 0..n-1, as they do under secbench. The SEC
// aggregator a thread uses is a function of its id, so a coordinator that
// took id 0 would move every worker to another aggregator (on update_t4
// that halves throughput).
template <class F>
void on_pool_thread(F&& fn) {
    sec::exec::WorkerPool::run(1, [&](sec::exec::WorkerContext&) { fn(); });
}

// ---- seeded generators -----------------------------------------------------

// SplitMix64's finalizer: a bijection on 64-bit words, so distinct tags
// always hash to distinct words.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

class Rng {
public:
    explicit Rng(std::uint64_t state) noexcept : s_(state) {}
    std::uint64_t next() noexcept {
        s_ += 0x9e3779b97f4a7c15ULL;
        return mix64(s_);
    }
    // Uniform in [0, n).
    unsigned below(unsigned n) noexcept {
        return static_cast<unsigned>(((next() >> 32) * n) >> 32);
    }
    // Uniform in [0, 1).
    double unit() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

private:
    std::uint64_t s_;
};

// Input streams. Each (purpose, index) pair gets an independent stream of
// the run's seed, so adding a worker or a phase never shifts another's
// inputs.
enum class Purpose : std::uint64_t { kOps = 1, kArrivals = 2 };

inline Rng stream(std::uint64_t seed, Purpose purpose, std::uint64_t index) {
    return Rng(mix64(seed ^ mix64((static_cast<std::uint64_t>(purpose) << 32) +
                                  index + 1)));
}

// ---- operations and tags ---------------------------------------------------

enum class Op : std::uint8_t { kPush = 0, kPop = 1, kPeek = 2 };

// Per-worker (or per-connection) op sequence: a push/pop/peek split in
// percent, with one clamp — when this stream's pops exceed its pushes by
// `max_deficit`, the next pop becomes a push. Prefilling the stack with
// streams × max_deficit values therefore guarantees no pop can ever find it
// empty, whatever the interleaving. The clamp is a function of the stream's
// own history, so the sequence still depends on the seed alone.
class OpStream {
public:
    OpStream(Rng rng, unsigned push_pct, unsigned pop_pct,
             std::int64_t max_deficit) noexcept
        : rng_(rng), push_pct_(push_pct), pop_pct_(pop_pct),
          max_deficit_(max_deficit) {}

    Op next() noexcept {
        const unsigned r = rng_.below(100);
        Op op = r < push_pct_            ? Op::kPush
                : r < push_pct_ + pop_pct_ ? Op::kPop
                                           : Op::kPeek;
        if (op == Op::kPop && deficit_ >= max_deficit_) op = Op::kPush;
        if (op == Op::kPush) --deficit_;
        if (op == Op::kPop) ++deficit_;
        return op;
    }

private:
    Rng rng_;
    unsigned push_pct_;
    unsigned pop_pct_;
    std::int64_t max_deficit_;
    std::int64_t deficit_ = 0;
};

// Every pushed value is a unique (source, seq) tag. Source 0 is the
// prefill; closed-loop worker w pushes as source w + 1, served connection c
// as source c + 1. A served request's tag is the same kind of word, and a
// served push carries its own request tag as the value.
inline constexpr unsigned kSeqBits = 48;
constexpr std::uint64_t make_tag(std::uint64_t source, std::uint64_t seq) {
    return (source << kSeqBits) | seq;
}
constexpr std::uint64_t tag_source(std::uint64_t tag) {
    return tag >> kSeqBits;
}
constexpr std::uint64_t tag_seq(std::uint64_t tag) {
    return tag & ((std::uint64_t{1} << kSeqBits) - 1);
}

// ---- the conservation ledger -------------------------------------------------

// One thread's view of the values it pushed and removed. Removals are
// summed as a multiset hash (Σ mix64(tag)), so checking conservation costs
// one mix per op and no memory per value: at the end, pushes and removals
// must agree in count and in hash. A lost or a duplicated tag changes the
// count; a lost tag traded for a duplicated one changes the hash, since
// mix64 is a bijection. Each seen tag is also range-checked against the
// sources that exist and the highest seq each source pushed.
class Ledger {
public:
    explicit Ledger(std::size_t sources = 0) : max_seq_(sources, 0) {}

    void pushed(std::uint64_t tag) noexcept {
        ++pushes_;
        push_hash_ += mix64(tag);
    }
    void removed(std::uint64_t tag) noexcept {
        ++removals_;
        removal_hash_ += mix64(tag);
        seen(tag);
    }
    // A tag observed without removing it (a peek): range-checked only.
    void seen(std::uint64_t tag) noexcept {
        const std::uint64_t src = tag_source(tag);
        if (src >= max_seq_.size()) {
            ++foreign_;
            return;
        }
        const std::uint64_t end = tag_seq(tag) + 1;
        if (end > max_seq_[src]) max_seq_[src] = end;
    }

    void merge(const Ledger& o);

    std::uint64_t pushes() const noexcept { return pushes_; }
    std::uint64_t removals() const noexcept { return removals_; }

    // Empty when every pushed tag was removed exactly once and every tag
    // seen names a source s with a seq below seq_end[s] (the seqs source s
    // handed out); otherwise one line per broken rule.
    std::vector<std::string> verify(
        const std::vector<std::uint64_t>& seq_end) const;

private:
    std::uint64_t pushes_ = 0;
    std::uint64_t push_hash_ = 0;
    std::uint64_t removals_ = 0;
    std::uint64_t removal_hash_ = 0;
    std::uint64_t foreign_ = 0;          // tags from no known source
    std::vector<std::uint64_t> max_seq_;  // per source: 1 + highest seq seen
};

// ---- arrival schedules -------------------------------------------------------

// One connection's requests for one open-loop phase: Poisson arrivals at
// `rate_per_s` over `seconds`, each a push or a pop drawn from `ops`.
struct Schedule {
    std::vector<std::uint64_t> due_ns;  // offsets from the phase start, ascending
    std::vector<Op> ops;
};
Schedule make_schedule(Rng arrivals, OpStream& ops, double rate_per_s,
                       double seconds);

// ---- summaries ---------------------------------------------------------------

// Latencies are recorded into the library's LatencyHistogram (fixed 8 KiB,
// <= 6.25 % bucket width) and summarized here.
using sec::bench::LatencyHistogram;

// q-quantile of a histogram, interpolated by rank inside the bucket that
// holds it. quantile_ns() alone returns that bucket's upper bound, which
// moves in steps of up to 6.25 %; interpolating keeps a shift smaller than
// a bucket visible. 0 for an empty histogram.
double quantile(const LatencyHistogram& h, double q);

// Size, mean and quantiles of one histogram, in its unit (ns). A p99 is
// only reported as supported when at least ten samples lie beyond it.
struct Percentiles {
    std::uint64_t n = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double max = 0;  // upper bound of the largest sample's bucket
    bool p99_supported() const noexcept { return n >= 1000; }
};
Percentiles percentiles(const LatencyHistogram& h);

// The median, over equal sub-windows of a run, of each window's figures
// (windows with no samples are skipped); `n` is the smallest window's
// sample count. A host stall of a few milliseconds lands in one window and
// moves its figures, but not the median window's. `max` is left 0.
Percentiles median_over(const std::vector<Percentiles>& windows);

double median(std::vector<double> v);

// "n=<samples>" plus a reason when the sample is too small for its p99.
std::string sample_note(const Percentiles& p);

// Resident memory of this process now (VmRSS), MiB; 0 if unreadable.
double rss_mb();

// Sleep until `deadline_ns` (now_ns() clock), sampling rss_mb() every 50 ms,
// and return the highest sample: the peak of one measured window. The
// workloads report the median of their windows' peaks. A host stall that
// pauses one worker halts EBR epoch advance and spikes the limbo list in
// the window it hits; the median keeps that from deciding the run.
double window_peak_rss_mb(std::uint64_t deadline_ns);

}  // namespace perfbench
