// arrival.cpp — open-loop arrival schedules (workload/arrival.hpp).
#include "workload/arrival.hpp"

#include <cmath>

#include "core/common.hpp"

namespace sec::bench {
namespace {

// Uniform double in (0, 1] — never 0, so -log(u) is finite.
double uniform01(Xoshiro256& rng) {
    return (static_cast<double>(rng.next() >> 11) + 1.0) * 0x1.0p-53;
}

// Exponential inter-arrival draw for a Poisson process of `rate_per_ns`.
double exp_gap_ns(Xoshiro256& rng, double rate_per_ns) {
    return -std::log(uniform01(rng)) / rate_per_ns;
}

}  // namespace

std::optional<ArrivalKind> parse_arrival(std::string_view name) {
    if (name == "poisson") return ArrivalKind::kPoisson;
    if (name == "burst") return ArrivalKind::kBurst;
    return std::nullopt;
}

std::string_view arrival_name(ArrivalKind kind) noexcept {
    return kind == ArrivalKind::kPoisson ? "poisson" : "burst";
}

std::vector<std::uint64_t> make_arrival_schedule(
    ArrivalKind kind, std::chrono::milliseconds horizon, double ops_per_s,
    std::uint64_t seed) {
    std::vector<std::uint64_t> out;
    if (ops_per_s <= 0) return out;
    const double horizon_ns =
        std::chrono::duration<double, std::nano>(horizon).count();
    const double rate_per_ns = ops_per_s * 1e-9;
    Xoshiro256 rng(seed);
    out.reserve(static_cast<std::size_t>(rate_per_ns * horizon_ns * 1.2) + 16);

    if (kind == ArrivalKind::kPoisson) {
        for (double t = exp_gap_ns(rng, rate_per_ns); t < horizon_ns;
             t += exp_gap_ns(rng, rate_per_ns)) {
            out.push_back(static_cast<std::uint64_t>(t));
        }
        return out;
    }

    // Bursty: a Poisson process at rate/duty, gated to the first
    // duty-fraction of every period — same mean rate, compressed arrivals.
    const double period_ns =
        std::chrono::duration<double, std::nano>(kBurstPeriod).count();
    const double on_ns = period_ns * kBurstDuty;
    const double burst_rate = rate_per_ns / kBurstDuty;
    for (double p0 = 0; p0 < horizon_ns; p0 += period_ns) {
        for (double t = p0 + exp_gap_ns(rng, burst_rate);
             t < p0 + on_ns && t < horizon_ns;
             t += exp_gap_ns(rng, burst_rate)) {
            out.push_back(static_cast<std::uint64_t>(t));
        }
    }
    return out;
}

}  // namespace sec::bench
