// serve.cpp — the open-loop service harness (workload/service.hpp):
// arrival-schedule generation, the producer/consumer lane coordinator, and
// the sustainable-load knee finder. Thread plumbing mirrors the other
// any_runner coordinators; the measured lanes themselves live behind one
// virtual call each (phase_serve_produce / phase_serve_consume in
// workload/runner.hpp), so push/pop inline against the concrete stack type.
#include "workload/service.hpp"

#include <barrier>
#include <cmath>
#include <vector>

#include "core/common.hpp"
#include "exec/worker_pool.hpp"
#include "workload/runner.hpp"

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

std::vector<std::uint64_t> make_arrival_schedule(const ServiceConfig& cfg,
                                                 double lane_ops_s,
                                                 std::uint64_t seed) {
    std::vector<std::uint64_t> out;
    if (lane_ops_s <= 0) return out;
    const double horizon_ns =
        std::chrono::duration<double, std::nano>(cfg.duration).count();
    const double rate_per_ns = lane_ops_s * 1e-9;
    Xoshiro256 rng(seed);

    if (cfg.arrival == ArrivalKind::kPoisson) {
        out.reserve(static_cast<std::size_t>(rate_per_ns * horizon_ns * 1.2) +
                    16);
        for (double t = exp_gap_ns(rng, rate_per_ns); t < horizon_ns;
             t += exp_gap_ns(rng, rate_per_ns)) {
            out.push_back(static_cast<std::uint64_t>(t));
        }
        return out;
    }

    // Bursty: a Poisson process at rate/duty, gated to the first
    // duty-fraction of every period — same mean rate, compressed arrivals.
    const double period_ns = std::chrono::duration<double, std::nano>(
                                 cfg.burst_period)
                                 .count();
    const double duty =
        std::min(std::max(cfg.burst_duty, 1e-3), 1.0);  // keep rate finite
    const double on_ns = period_ns * duty;
    const double burst_rate = rate_per_ns / duty;
    out.reserve(static_cast<std::size_t>(rate_per_ns * horizon_ns * 1.2) +
                16);
    for (double p0 = 0; p0 < horizon_ns; p0 += period_ns) {
        for (double t = p0 + exp_gap_ns(rng, burst_rate);
             t < p0 + on_ns && t < horizon_ns;
             t += exp_gap_ns(rng, burst_rate)) {
            out.push_back(static_cast<std::uint64_t>(t));
        }
    }
    return out;
}

ServiceResult run_service_any(const AnyStackFactory& make,
                              const ServiceConfig& cfg) {
    using Clock = std::chrono::steady_clock;
    ServiceResult res;
    if (cfg.producers == 0 || cfg.consumers == 0 || cfg.load_kops <= 0) {
        return res;
    }
    AnyStack stack = make();

    // Disjoint deterministic schedules per lane (salt 3: distinct from the
    // prefill/measured/phased salts in the closed-loop runners).
    const double lane_ops_s = cfg.load_kops * 1000.0 / cfg.producers;
    std::vector<std::vector<std::uint64_t>> lanes(cfg.producers);
    for (unsigned p = 0; p < cfg.producers; ++p) {
        lanes[p] =
            make_arrival_schedule(cfg, lane_ops_s, phase_seed(cfg.seed, p, 0, 3));
        res.produced += lanes[p].size();
    }
    const double duration_s =
        std::chrono::duration<double>(cfg.duration).count();
    res.offered_kops = duration_s > 0 ? static_cast<double>(res.produced) /
                                            duration_s / 1000.0
                                      : 0.0;

    std::atomic<bool> stop{false};
    std::vector<CacheAligned<LatencyHistogram>> sojourns(cfg.consumers);
    std::vector<CacheAligned<LatencyHistogram>> services(cfg.consumers);
    std::vector<CacheAligned<std::uint64_t>> completed(cfg.consumers);
    std::vector<CacheAligned<Clock::time_point>> ends(cfg.consumers);
    // All lanes + the coordinator rendezvous twice: once so every thread is
    // running before the epoch is taken (thread-spawn cost must not charge
    // the first requests), once so the coordinator's epoch write is visible
    // before any lane reads it.
    std::barrier sync(
        static_cast<std::ptrdiff_t>(cfg.producers + cfg.consumers) + 1);
    Clock::time_point epoch;

    // Two pools sharing the external barrier above (the pools' own
    // barriers cover only their own workers, and this rendezvous spans
    // both lanes plus the coordinator). Under a pin policy the consumer
    // pool plans from slot `producers` of the cpu order, so the lanes
    // occupy disjoint cpus until the machine is full.
    exec::PoolOptions popts;
    popts.pin = cfg.pin;
    popts.coordinator_in_barrier = false;
    exec::WorkerPool producer_pool(cfg.producers, popts);
    exec::PoolOptions copts = popts;
    copts.plan_offset = cfg.producers;
    exec::WorkerPool consumer_pool(cfg.consumers, copts);

    producer_pool.start([&](exec::WorkerContext& wc) {
        const unsigned p = wc.index;
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        ServeProduceArgs args;
        args.schedule = lanes[p].data();
        args.count = lanes[p].size();
        args.epoch = epoch;
        stack.serve_produce(args);
    });
    consumer_pool.start([&](exec::WorkerContext& wc) {
        const unsigned c = wc.index;
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        ServeConsumeArgs args;
        args.epoch = epoch;
        if (c == 0) {
            args.stall_after_op = cfg.stall_after_op;
            args.stall_ns = cfg.stall_ns;
        }
        *completed[c] =
            stack.serve_consume(stop, args, *sojourns[c], *services[c]);
        *ends[c] = Clock::now();
    });

    sync.arrive_and_wait();
    epoch = Clock::now();
    sync.arrive_and_wait();
    // Producers exit when their schedules are exhausted; only then may the
    // consumers treat an empty buffer as drained.
    producer_pool.join();
    stop.store(true, std::memory_order_release);
    consumer_pool.join();

    Clock::time_point last = epoch;
    for (unsigned c = 0; c < cfg.consumers; ++c) {
        res.completed += *completed[c];
        res.sojourn.merge_from(*sojourns[c]);
        res.service.merge_from(*services[c]);
        if (*ends[c] > last) last = *ends[c];
    }
    res.window_s = std::chrono::duration<double>(last - epoch).count();
    res.achieved_kops = res.window_s > 0
                            ? static_cast<double>(res.completed) /
                                  res.window_s / 1000.0
                            : 0.0;
    return res;
}

KneeResult find_service_knee(const AnyStackFactory& make, ServiceConfig cfg,
                             const KneeConfig& knee,
                             const KneeProbeHook& on_probe) {
    KneeResult result;
    if (knee.start_kops <= 0) return result;

    auto probe = [&](double kops) {
        cfg.load_kops = kops;
        const ServiceResult r = run_service_any(make, cfg);
        const double p99 =
            static_cast<double>(r.sojourn.quantile_ns(0.99));
        // A lane that produced nothing (or a buffer that failed to drain)
        // is not a sustainable operating point, whatever its p99 says.
        const bool ok = r.produced > 0 && r.completed == r.produced &&
                        p99 <= static_cast<double>(knee.p99_limit_ns);
        if (on_probe) {
            KneeProbe p;
            p.index = result.probes;
            p.offered_kops = kops;
            p.achieved_kops = r.achieved_kops;
            p.p99_ns = p99;
            p.sustainable = ok;
            on_probe(p);
        }
        ++result.probes;
        return std::pair<bool, double>{ok, p99};
    };

    // Doubling phase: find the first unsustainable load.
    double lo = 0, hi = 0;
    for (double load = knee.start_kops; load <= knee.max_kops; load *= 2) {
        const auto [ok, p99] = probe(load);
        if (!ok) {
            hi = load;
            break;
        }
        lo = load;
        result.sustainable_kops = load;
        result.p99_ns_at_knee = p99;
    }
    if (hi == 0 || lo == 0) return result;  // never exploded / never held

    // Bisection between the last good and first bad probe.
    for (unsigned i = 0; i < knee.refine_steps; ++i) {
        const double mid = (lo + hi) / 2;
        const auto [ok, p99] = probe(mid);
        if (ok) {
            lo = mid;
            result.sustainable_kops = mid;
            result.p99_ns_at_knee = p99;
        } else {
            hi = mid;
        }
    }
    return result;
}

}  // namespace sec::bench
