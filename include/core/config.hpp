// core/config.hpp — SecStack/SecQueue configuration and the per-run degree
// statistics (batching / elimination / combining, paper Table 1).
//
// Every knob documents its unit, its legal range, and the paper section it
// reproduces, so a sweep axis (workload/sweep.hpp) or a hand-written Config
// can be checked against the paper without opening the implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/common.hpp"

namespace sec {

inline constexpr std::size_t kMaxAggregators = 5;

// Upper bound on Config::freezer_backoff_ns: 48 bits of nanoseconds ≈ 78
// hours, far beyond any sane window. validate() rejects anything larger as
// malformed input (e.g. a negative value wrapped to 2^64 - n).
inline constexpr std::uint64_t kMaxFreezerBackoffNs =
    (std::uint64_t{1} << 48) - 1;

struct Config {
    // Number of aggregators — concurrent batches being formed. Thread ids
    // map to them in contiguous blocks: [0,M/K) -> agg 0, [M/K,2M/K) ->
    // agg 1, ... for M = max_threads (§3.2's prose example).
    //   unit: count · legal range: [1, kMaxAggregators] (validate() throws
    //   outside it) · paper: §3.2, swept in §6/Figure 4, whose update-heavy
    //   sweet spot is 2-4.
    std::size_t num_aggregators = 4;
    // Bound on concurrently-live threads using the structure; per-thread
    // publication slots, and with them SecStack's direct-entry state, are
    // sized by this.
    //   unit: threads · legal range: [1, kMaxThreads] · paper: §3 ("M
    //   threads"). Threads with ids at or past the bound have no slot: they
    //   never batch and retry their spine CAS until it lands
    //   (AggregatorSet::is_overflow), uncounted by stats().
    std::size_t max_threads = kMaxThreads;
    // Backoff the freezer executes before freezing a batch, to let the
    // batch grow and raise the elimination degree.
    //   unit: nanoseconds (busy-wait, steady_clock granularity) · legal
    //   range: [0, kMaxFreezerBackoffNs], validate() throws above it — 0
    //   DISABLES the wait entirely (freeze immediately; the backoff branch
    //   is skipped, not a zero-length spin) · paper: §3.1; swept by
    //   `secbench ablation_backoff` and `secbench sweep`.
    std::uint64_t freezer_backoff_ns = 256;
    // When true, per-batch degree counters are maintained (small overhead).
    //   paper: Table 1 metrics.
    bool collect_stats = false;

    void validate() const {
        if (num_aggregators < 1 || num_aggregators > kMaxAggregators) {
            throw std::invalid_argument(
                "sec::Config: num_aggregators must be in [1, 5]");
        }
        if (max_threads < 1 || max_threads > kMaxThreads) {
            throw std::invalid_argument(
                "sec::Config: max_threads must be in [1, kMaxThreads]");
        }
        if (freezer_backoff_ns > kMaxFreezerBackoffNs) {
            // Malformed input, not a tuning choice: a longer window would
            // stall every freezer for days or overflow its steady_clock
            // deadline.
            throw std::invalid_argument(
                "sec::Config: freezer_backoff_ns must be < 2^48");
        }
    }
};

// Snapshot of the degree counters (Table 1 metrics). `batched_ops` counts
// operations that went through a frozen batch; of those, `eliminated_ops`
// were matched push/pop pairs and `combined_ops` were applied to the central
// structure by the combiner. `direct_ops` counts SecStack operations that
// completed with their own single spine CAS and never reached an
// aggregator (the contention-sensitive entry), so for a SecStack below
// Config::max_threads, direct_ops + batched_ops is every push and pop.
struct StatsSnapshot {
    std::uint64_t batches = 0;
    std::uint64_t batched_ops = 0;
    std::uint64_t eliminated_ops = 0;
    std::uint64_t combined_ops = 0;
    std::uint64_t direct_ops = 0;

    double batching_degree() const noexcept {
        return batches ? static_cast<double>(batched_ops) /
                             static_cast<double>(batches)
                       : 0.0;
    }
    double elimination_pct() const noexcept {
        return batched_ops ? 100.0 * static_cast<double>(eliminated_ops) /
                                 static_cast<double>(batched_ops)
                           : 0.0;
    }
    double combining_pct() const noexcept {
        return batched_ops ? 100.0 * static_cast<double>(combined_ops) /
                                 static_cast<double>(batched_ops)
                           : 0.0;
    }
    // Share of all counted operations that took the direct path.
    double direct_pct() const noexcept {
        const std::uint64_t all = direct_ops + batched_ops;
        return all ? 100.0 * static_cast<double>(direct_ops) /
                         static_cast<double>(all)
                   : 0.0;
    }
};

}  // namespace sec
