// workload/service.hpp — the open-loop service harness (sec::bench::serve,
// DESIGN.md §9). Everything else in the workload layer is closed-loop:
// workers issue the next op the moment the previous one returns, so the
// measured rate adapts to the stack and queueing delay is invisible
// (coordinated omission). This harness inverts that: a Poisson or bursty
// arrival schedule fixes WHEN each request exists, producer lanes feed the
// structure under test as the central job buffer, and consumers charge each
// request completion minus *scheduled* arrival — a stalled combiner is
// billed the whole backed-up queue, not just the op in flight.
//
// run_service_any reports two histograms side by side:
//   sojourn  arrival-to-completion (the open-loop tail the user feels)
//   service  the pop call alone    (the closed-loop view, for contrast)
// and find_service_knee binary-searches the highest offered load whose
// sojourn p99 stays under a limit — the knee of the latency/throughput
// curve, per algorithm.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/stack_concept.hpp"
#include "workload/any_runner.hpp"
#include "workload/histogram.hpp"

namespace sec::bench {

enum class ArrivalKind {
    kPoisson,  // memoryless: exponential inter-arrival times
    kBurst,    // on/off: arrivals compressed into the duty window of each
               // period at rate/duty, idle otherwise; mean rate preserved
};

// "poisson" / "burst" -> kind; nullopt on anything else (callers reject
// loudly — a typo must not silently measure a different arrival process).
std::optional<ArrivalKind> parse_arrival(std::string_view name);
std::string_view arrival_name(ArrivalKind kind) noexcept;

struct ServiceConfig {
    // Lane split: producers replay arrival schedules, consumers serve the
    // buffer. Both must be >= 1.
    unsigned producers = 1;
    unsigned consumers = 1;
    // Offered load across ALL producer lanes, in Kops/s (the --load unit).
    double load_kops = 50.0;
    // Arrival-schedule horizon: requests are scheduled in [0, duration).
    std::chrono::milliseconds duration{200};
    ArrivalKind arrival = ArrivalKind::kPoisson;
    // Burst shape (kBurst only): arrivals occupy the first `burst_duty`
    // fraction of every `burst_period`, at load/duty within the window.
    std::chrono::milliseconds burst_period{10};
    double burst_duty = 0.25;
    std::uint64_t seed = 0;
    // Fault injection (tests): consumer 0 stalls once for `stall_ns` after
    // its `stall_after_op`-th completion (see ServeConsumeArgs).
    std::uint64_t stall_after_op = 0;
    std::uint64_t stall_ns = 0;
    // Lane placement (`--pin`): producers take the first slots of the
    // policy's cpu order, consumers the next ones, so the two pools never
    // stack on the same cpu until the machine is full.
    topo::PinPolicy pin = topo::PinPolicy::kNone;
};

struct ServiceResult {
    std::uint64_t produced = 0;   // requests in the generated schedules
    std::uint64_t completed = 0;  // requests consumers actually served
    double offered_kops = 0;      // from the schedules, not the target
    double achieved_kops = 0;     // completed / window (drain included)
    double window_s = 0;          // epoch -> last consumer exit
    LatencyHistogram sojourn;     // completion - scheduled arrival
    LatencyHistogram service;     // pop call duration alone
};

// Deterministic arrival schedule for ONE producer lane: ascending ns
// offsets from the run epoch, rate `lane_ops_s`, horizon cfg.duration.
// Identical (cfg, lane_ops_s, seed) -> identical schedule.
std::vector<std::uint64_t> make_arrival_schedule(const ServiceConfig& cfg,
                                                 double lane_ops_s,
                                                 std::uint64_t seed);

// One open-loop window on a fresh structure from `make`: generate per-lane
// schedules, run producers + consumers to completion (consumers drain the
// buffer after the schedules end), merge per-consumer histograms.
ServiceResult run_service_any(const AnyStackFactory& make,
                              const ServiceConfig& cfg);

struct KneeConfig {
    double start_kops = 5.0;       // first probe; must be > 0
    double max_kops = 100000.0;    // doubling-phase cap
    std::uint64_t p99_limit_ns = 20'000'000;  // "explodes" above this
    unsigned refine_steps = 4;     // bisections after the doubling phase
};

struct KneeResult {
    double sustainable_kops = 0;  // highest probe under the p99 limit
    double p99_ns_at_knee = 0;    // sojourn p99 at that load
    unsigned probes = 0;          // service windows spent searching
};

// One probe of the knee search, in search order. The hook receives every
// probe as it completes, so a scenario can persist the whole binary-search
// trace (doubling phase + bisections), not just the final knee.
struct KneeProbe {
    unsigned index = 0;        // 0-based position in the search
    double offered_kops = 0;   // the load this probe offered
    double achieved_kops = 0;  // what the window actually completed
    double p99_ns = 0;         // sojourn p99 of the probe window
    bool sustainable = false;  // under the limit, nothing lost
};

// Probe-progress hook for scenario logging. Pass nullptr for silence.
using KneeProbeHook = std::function<void(const KneeProbe&)>;

// Exponential doubling from start_kops until the sojourn p99 exceeds
// p99_limit_ns (or max_kops), then `refine_steps` bisections between the
// last sustainable and first unsustainable load. Each probe is one
// cfg.duration service window on a fresh structure.
KneeResult find_service_knee(const AnyStackFactory& make, ServiceConfig cfg,
                             const KneeConfig& knee,
                             const KneeProbeHook& on_probe = nullptr);

}  // namespace sec::bench
