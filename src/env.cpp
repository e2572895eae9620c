// env.cpp — the strict value parsers and the bench preamble.
#include "workload/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/common.hpp"

namespace sec::bench {
namespace {

// Length of the run of ASCII digits at `p`.
std::size_t digits(const char* p) {
    std::size_t n = 0;
    while (std::isdigit(static_cast<unsigned char>(p[n]))) ++n;
    return n;
}

}  // namespace

bool parse_u64_strict(const char* v, std::uint64_t& out) {
    if (v == nullptr || *v == '\0') return false;
    if (!std::isdigit(static_cast<unsigned char>(v[0]))) return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE) return false;
    out = parsed;
    return true;
}

bool parse_decimal_strict(const char* v, double& out) {
    if (v == nullptr) return false;
    std::size_t n = digits(v);
    if (n == 0) return false;
    if (v[n] == '.') {
        const std::size_t frac = digits(v + n + 1);
        if (frac == 0) return false;
        n += 1 + frac;
    }
    if (v[n] != '\0') return false;
    // The grammar check above leaves strtod nothing to be lenient about;
    // only a few hundred digits can still overflow it.
    out = std::strtod(v, nullptr);
    return std::isfinite(out);
}

std::vector<unsigned> parse_grid(const char* csv) {
    std::vector<unsigned> grid;
    std::string token;
    auto flush = [&]() -> bool {
        if (token.empty()) return true;
        std::uint64_t v = 0;
        if (!parse_u64_strict(token.c_str(), v) || v == 0 ||
            v > std::uint64_t{0xFFFFFFFFull}) {
            return false;
        }
        grid.push_back(static_cast<unsigned>(v));
        token.clear();
        return true;
    };
    for (const char* p = csv;; ++p) {
        if (*p == ',' || *p == ' ' || *p == '\0') {
            if (!flush()) return {};
            if (*p == '\0') break;
        } else {
            token += *p;
        }
    }
    return grid;
}

void clamp_thread_grid(std::vector<unsigned>& grid) {
    // Head-room of 8 below kMaxThreads for the coordinator, main, and
    // gtest-style environment threads that share the tid space with the
    // workers.
    const unsigned bound = static_cast<unsigned>(kMaxThreads) - 8;
    for (unsigned& t : grid) {
        if (t > bound) {
            std::fprintf(stderr,
                         "secbench: clamping thread count %u to %u "
                         "(kMaxThreads=%zu minus harness head-room)\n",
                         t, bound, kMaxThreads);
            t = bound;
        }
    }
}

void print_preamble(std::string_view bench_name, const EnvConfig& cfg,
                    bool paper) {
    std::string grid;
    for (unsigned t : cfg.threads) {
        if (!grid.empty()) grid += ',';
        grid += std::to_string(t);
    }
    std::fprintf(stderr,
                 "== %.*s ==\n"
                 "hw_threads=%u duration_ms=%u runs=%u prefill=%zu "
                 "seed=%llu threads=[%s] pin=%s%s\n",
                 static_cast<int>(bench_name.size()), bench_name.data(),
                 std::thread::hardware_concurrency(), cfg.duration_ms,
                 cfg.runs, cfg.prefill,
                 static_cast<unsigned long long>(cfg.seed), grid.c_str(),
                 cfg.pin.empty() ? "none" : cfg.pin.c_str(),
                 paper ? " (paper mode)" : "");
}

}  // namespace sec::bench
