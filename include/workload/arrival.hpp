// workload/arrival.hpp — open-loop arrival schedules (DESIGN.md §11). The
// loopback client (net/client.hpp) replays one schedule per connection: a
// Poisson or bursty process fixes WHEN each request exists, whatever the
// server under test does, and every reply is charged against its scheduled
// arrival, so a stalled server is billed the whole backed-up queue and not
// just the request in flight (no coordinated omission).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace sec::bench {

enum class ArrivalKind {
    kPoisson,  // memoryless: exponential inter-arrival times
    kBurst,    // on/off: arrivals compressed into the duty window of each
               // period at rate/duty, idle otherwise; mean rate preserved
};

// The burst shape: arrivals occupy the first kBurstDuty fraction of every
// kBurstPeriod.
inline constexpr std::chrono::milliseconds kBurstPeriod{10};
inline constexpr double kBurstDuty = 0.25;

// "poisson" / "burst" -> kind; nullopt on anything else (callers reject
// loudly — a typo must not silently measure a different arrival process).
std::optional<ArrivalKind> parse_arrival(std::string_view name);
std::string_view arrival_name(ArrivalKind kind) noexcept;

// Deterministic arrival schedule for one lane: ascending ns offsets from
// the run epoch in [0, horizon), at a mean rate of `ops_per_s`. Identical
// (kind, horizon, ops_per_s, seed) -> identical schedule.
std::vector<std::uint64_t> make_arrival_schedule(
    ArrivalKind kind, std::chrono::milliseconds horizon, double ops_per_s,
    std::uint64_t seed);

}  // namespace sec::bench
