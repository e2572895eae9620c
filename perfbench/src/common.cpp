// common.cpp — ledger verification, summaries and process facts
// (common.hpp).
#include "common.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

void Ledger::merge(const Ledger& o) {
    pushes_ += o.pushes_;
    push_hash_ += o.push_hash_;
    removals_ += o.removals_;
    removal_hash_ += o.removal_hash_;
    foreign_ += o.foreign_;
    if (max_seq_.size() < o.max_seq_.size()) {
        max_seq_.resize(o.max_seq_.size(), 0);
    }
    for (std::size_t s = 0; s < o.max_seq_.size(); ++s) {
        max_seq_[s] = std::max(max_seq_[s], o.max_seq_[s]);
    }
}

std::vector<std::string> Ledger::verify(
    const std::vector<std::uint64_t>& seq_end) const {
    std::vector<std::string> bad;
    auto add = [&](const char* fmt, auto... args) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        bad.emplace_back(buf);
    };
    if (removals_ != pushes_) {
        add("%llu tags pushed but %llu popped or drained",
            static_cast<unsigned long long>(pushes_),
            static_cast<unsigned long long>(removals_));
    }
    if (removal_hash_ != push_hash_) {
        add("popped tags differ from pushed tags "
            "(one was lost and another duplicated)");
    }
    if (foreign_ != 0) {
        add("%llu tags name no source",
            static_cast<unsigned long long>(foreign_));
    }
    for (std::size_t s = 0; s < max_seq_.size(); ++s) {
        const std::uint64_t n = s < seq_end.size() ? seq_end[s] : 0;
        if (max_seq_[s] > n) {
            add("source %zu: seq %llu seen but only %llu handed out", s,
                static_cast<unsigned long long>(max_seq_[s] - 1),
                static_cast<unsigned long long>(n));
        }
    }
    return bad;
}

Schedule make_schedule(Rng arrivals, OpStream& ops, double rate_per_s,
                       double seconds) {
    Schedule s;
    const double horizon_ns = seconds * 1e9;
    const double mean_gap_ns = 1e9 / rate_per_s;
    s.due_ns.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
    for (double t = 0;;) {
        t += -std::log1p(-arrivals.unit()) * mean_gap_ns;
        if (t >= horizon_ns) break;
        s.due_ns.push_back(static_cast<std::uint64_t>(t));
        s.ops.push_back(ops.next());
    }
    return s;
}

double quantile(const LatencyHistogram& h, double q) {
    const std::uint64_t n = h.total();
    if (n == 0) return 0;
    // The value quantile_ns() gives for the r-th smallest sample (1-based):
    // the upper bound of its bucket. It is monotone in r.
    auto at = [&](std::uint64_t r) {
        return h.quantile_ns((static_cast<double>(r) + 0.25) /
                             static_cast<double>(n));
    };
    const std::uint64_t rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::clamp(q, 0.0, 1.0) *
                                       static_cast<double>(n) +
                                   0.5),
        1, n);
    const std::uint64_t bound = at(rank);
    // The ranks [first, last] that share rank's bucket.
    std::uint64_t lo = 1;
    std::uint64_t hi = rank;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (at(mid) < bound) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    const std::uint64_t first = lo;
    hi = n;
    lo = rank;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (at(mid) > bound) {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    const std::uint64_t last = lo;
    const std::size_t b = LatencyHistogram::bucket_of(bound);
    const double floor_ns =
        b == 0 ? 0.0
               : static_cast<double>(LatencyHistogram::bucket_bound(b - 1)) + 1;
    const double width = static_cast<double>(bound) - floor_ns + 1;
    return floor_ns + width * (static_cast<double>(rank - first) + 0.5) /
                          static_cast<double>(last - first + 1);
}

Percentiles percentiles(const LatencyHistogram& h) {
    Percentiles p;
    p.n = h.total();
    p.mean = h.mean_ns();
    p.p50 = quantile(h, 0.50);
    p.p90 = quantile(h, 0.90);
    p.p99 = quantile(h, 0.99);
    p.max = static_cast<double>(h.quantile_ns(1.0));
    return p;
}

Percentiles median_over(const std::vector<Percentiles>& windows) {
    std::vector<double> mean, p50, p90, p99;
    Percentiles m;
    for (const Percentiles& p : windows) {
        if (p.n == 0) continue;
        mean.push_back(p.mean);
        p50.push_back(p.p50);
        p90.push_back(p.p90);
        p99.push_back(p.p99);
        m.n = mean.size() == 1 ? p.n : std::min(m.n, p.n);
    }
    m.mean = median(std::move(mean));
    m.p50 = median(std::move(p50));
    m.p90 = median(std::move(p90));
    m.p99 = median(std::move(p99));
    return m;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t k = v.size() / 2;
    return v.size() % 2 ? v[k] : (v[k - 1] + v[k]) / 2;
}

std::string sample_note(const Percentiles& p) {
    return "n=" + std::to_string(p.n) +
           (p.p99_supported() ? "" : " (too few for a p99)");
}

double rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

double window_peak_rss_mb(std::uint64_t deadline_ns) {
    double peak = 0;
    for (;;) {
        const std::uint64_t now = now_ns();
        if (now >= deadline_ns) break;
        const std::uint64_t step = std::min<std::uint64_t>(
            deadline_ns - now, 50'000'000);
        std::this_thread::sleep_for(std::chrono::nanoseconds(step));
        peak = std::max(peak, rss_mb());
    }
    return std::max(peak, rss_mb());
}

void RunResult::set(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
    for (Metric& m : metrics) {
        if (m.name == name) {
            m = {name, value, unit, note};
            return;
        }
    }
    metrics.push_back({name, value, unit, note});
}

std::string reps_note(const std::vector<double>& reps, const char* label) {
    std::string s = label;
    char buf[32];
    for (double v : reps) {
        std::snprintf(buf, sizeof(buf), " %.4g", v);
        s += buf;
    }
    return s;
}

double failed_frac(const RunResult& res) {
    return res.attempted ? static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted)
                         : 0.0;
}

}  // namespace perfbench
