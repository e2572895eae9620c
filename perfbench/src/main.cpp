// main.cpp — the perfbench command line.
//
//   perfbench --workload <update_t4|mixed_t2|served_tcp> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--git-sha <sha>]
//
// Prints one human-readable line per metric the workload measured (with
// how it was taken), a `# meta {...}` provenance line, and as the last line
// one JSON object: {"correct", "attempted", "failed", "metrics"} holding
// every measured metric. run.py turns that into the benchmark's result,
// with the metric set BENCHMARK.json names. When an output check fails it
// prints the violations and exits 1 instead.
#include <malloc.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exec/topology.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

struct Workload {
    const char* name;
    RunResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"update_t4", perfbench::run_update_t4},
    {"mixed_t2", perfbench::run_mixed_t2},
    {"served_tcp", perfbench::run_served_tcp},
};

// Jiffies the host stole from this VM's vcpus, and all jiffies, from the
// first line of /proc/stat; {0, 0} if unreadable. Their share over a run is
// recorded with it: a busy host shows up there, not only in slower numbers.
struct CpuJiffies {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

CpuJiffies cpu_jiffies() {
    CpuJiffies j;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return j;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        for (unsigned long long x : v) j.total += x;
        j.steal = v[7];
    }
    std::fclose(f);
    return j;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <update_t4|mixed_t2|served_tcp> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--git-sha <sha>]\n");
    return 2;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string meta_json(const RunOptions& opts, const RunResult& res,
                      const std::string& git_sha, double steal_pct) {
    const sec::topo::Topology& topo = sec::topo::Topology::system();
    std::string cpus = "[";
    unsigned pinned = 0;
    for (std::size_t i = 0; i < res.cpus.size(); ++i) {
        if (i > 0) cpus += ",";
        cpus += std::to_string(res.cpus[i]);
        pinned += res.cpus[i] >= 0 ? 1 : 0;
    }
    cpus += "]";
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\":%s,\"seed\":%" PRIu64 ",\"seconds\":%g,\"trace\":%d,"
        "\"nproc\":%u,\"topology\":{\"cpus\":%u,\"packages\":%u,"
        "\"cores\":%u,\"smt\":%u,\"l3_domains\":%u},\"pin\":\"compact\","
        "\"pinned\":%u,\"cpus\":%s,\"host_steal_pct\":%.3f,",
        json_string(opts.workload).c_str(), opts.seed, opts.seconds,
        opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
        topo.num_cpus(), topo.packages(), topo.cores(), topo.smt_width(),
        topo.l3_domains(), pinned, cpus.c_str(), steal_pct);
    return buf + std::string("\"git_sha\":") + json_string(git_sha) +
           ",\"compiler\":" + json_string(PB_COMPILER) +
           ",\"build_type\":" + json_string(PB_BUILD_TYPE) +
           ",\"cxx_flags\":" + json_string(PB_CXX_FLAGS) + "}";
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions opts;
    std::string trace_out;
    std::string git_sha = "unknown";
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage();
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opts.workload = v;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v, &end, 10);
            have_seed = end != v && *end == '\0';
            if (!have_seed) return usage();
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(opts.seconds > 0)) return usage();
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                return usage();
            }
            opts.trace = v[0] == '1';
        } else if (a == "--trace-out") {
            trace_out = v;
        } else if (a == "--git-sha") {
            git_sha = v;
        } else {
            return usage();
        }
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads) {
        if (opts.workload == w.name) wl = &w;
    }
    if (wl == nullptr || !have_seed) return usage();

    // A fixed mmap threshold: large benchmark arrays are always mapped and
    // unmapped whole, so peak RSS does not depend on how glibc's adaptive
    // threshold happened to move. The library's node-sized allocations are
    // far below it.
    ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    const CpuJiffies j0 = cpu_jiffies();
    RunResult res = wl->run(opts);
    const CpuJiffies j1 = cpu_jiffies();
    std::fflush(stdout);
    if (!res.violations.empty()) {
        for (const std::string& v : res.violations) {
            std::printf("VIOLATION %s\n", v.c_str());
        }
        std::fprintf(stderr, "perfbench: %zu output check(s) failed\n",
                     res.violations.size());
        return 1;
    }

    if (opts.trace) {
        res.set("trace.spans", static_cast<double>(res.spans.size()), "count",
                "spans kept in the trace");
        perfbench::print_span_table(res.spans);
    }
    std::printf("metrics (%s):\n", opts.trace ? "traced" : "untraced");
    for (const Metric& m : res.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
        std::printf("  %-26s %16.4f %-10s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.empty() ? "" : "  ",
                    m.note.c_str());
    }

    const double steal_pct =
        j1.total > j0.total ? 100.0 * static_cast<double>(j1.steal - j0.steal) /
                                  static_cast<double>(j1.total - j0.total)
                            : 0.0;
    const std::string meta = meta_json(opts, res, git_sha, steal_pct);
    std::printf("# meta %s\n", meta.c_str());
    if (opts.trace && !trace_out.empty()) {
        if (!perfbench::write_trace(trace_out, res.spans, meta)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }
        std::printf("# trace %zu spans written to %s\n", res.spans.size(),
                    trace_out.c_str());
    }

    std::printf("{\"correct\": true, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                res.attempted, res.failed);
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric& m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
