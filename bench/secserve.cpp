// secserve — the standalone sec::net server (DESIGN.md §11): any
// registry-built stack behind a TCP port, servable by a second process.
//
//   secserve --algo SEC@hp --port 7777
//
// Port 0 (the default) binds an ephemeral port — the bound port is printed
// on stdout (flushed) so a wrapper script can read it. By default the
// event-loop thread is not pinned. Runs until SIGINT/SIGTERM, then prints the
// server counters and exits 0, or 1 when they break
// requests == pushes + pops + empties + stats.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "exec/topology.hpp"
#include "net/server.hpp"
#include "workload/env.hpp"
#include "workload/registry.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

void usage() {
    std::fprintf(
        stderr,
        "usage: secserve [--algo NAME] [--port N] [--pin POLICY] [--list]\n"
        "  --algo NAME     registry algorithm to serve (default SEC);\n"
        "                  any ALGO@scheme name, e.g. SEC@hp\n"
        "  --port N        TCP port on 127.0.0.1 (default 0 = ephemeral;\n"
        "                  the bound port is printed)\n"
        "  --pin POLICY    pin the event-loop thread: none | compact |\n"
        "                  scatter | smt (default none)\n"
        "  --list          print algorithms, then exit\n");
}

bool parse_port(const char* v, unsigned& out) {
    std::uint64_t parsed = 0;
    if (!sec::bench::parse_u64_strict(v, parsed) || parsed > 65535) {
        return false;
    }
    out = static_cast<unsigned>(parsed);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    using sec::bench::AlgorithmRegistry;

    std::string algo = "SEC";
    unsigned port = 0;
    std::string pin = "none";

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "secserve: %s needs a value\n",
                             argv[i]);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (arg == "--list") {
            std::printf("algorithms:\n");
            for (const auto* a : AlgorithmRegistry::instance().all()) {
                std::printf("  %-12s %s\n", a->name.c_str(),
                            a->description.c_str());
            }
            return 0;
        }
        if (arg == "--algo") {
            const char* v = need_value();
            if (v == nullptr) return 2;
            algo = v;
            continue;
        }
        if (arg == "--port") {
            const char* v = need_value();
            if (v == nullptr || !parse_port(v, port)) {
                std::fprintf(stderr,
                             "secserve: --port wants an integer in "
                             "[0, 65535], got '%s'\n",
                             v ? v : "");
                return 2;
            }
            continue;
        }
        if (arg == "--pin") {
            const char* v = need_value();
            if (v == nullptr) return 2;
            if (!sec::topo::parse_pin_policy(v)) {
                std::fprintf(stderr,
                             "secserve: --pin '%s' must be none, compact, "
                             "scatter, or smt\n",
                             v);
                return 2;
            }
            pin = v;
            continue;
        }
        std::fprintf(stderr, "secserve: unknown argument '%s'\n",
                     argv[i]);
        usage();
        return 2;
    }

    const sec::bench::AlgoSpec* spec =
        AlgorithmRegistry::instance().find(algo);
    if (spec == nullptr) {
        std::fprintf(stderr, "secserve: unknown algorithm '%s' (have: %s)\n",
                     algo.c_str(),
                     AlgorithmRegistry::instance().names_csv().c_str());
        return 2;
    }

    // The event loop is the only thread that touches the stack; a small
    // thread bound keeps per-thread structures (combining slots, EBR tids)
    // tight.
    sec::bench::StackParams params;
    params.threads = 2;
    sec::AnyStack stack = spec->make(params);

    sec::net::ServerConfig cfg;
    cfg.port = static_cast<std::uint16_t>(port);
    cfg.pin = sec::topo::parse_pin_policy(pin).value_or(
        sec::topo::PinPolicy::kNone);
    sec::net::SecServer server(std::move(stack), std::move(cfg));
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "secserve: %s\n", err.c_str());
        return 1;
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::printf("secserve: listening on 127.0.0.1:%u algo=%s\n",
                static_cast<unsigned>(server.port()), spec->name.c_str());
    std::fflush(stdout);

    while (!g_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    server.stop();
    const sec::net::ServerStats s = server.stats();
    const bool adds_up = s.requests == s.pushes + s.pops + s.empties + s.stats;
    std::printf(
        "secserve: served %llu requests %s %llu pushes + %llu pops + %llu "
        "empties + %llu stats over %llu connections (batches=%llu "
        "max_batch=%llu)\n",
        static_cast<unsigned long long>(s.requests), adds_up ? "==" : "!=",
        static_cast<unsigned long long>(s.pushes),
        static_cast<unsigned long long>(s.pops),
        static_cast<unsigned long long>(s.empties),
        static_cast<unsigned long long>(s.stats),
        static_cast<unsigned long long>(s.accepted),
        static_cast<unsigned long long>(s.batches),
        static_cast<unsigned long long>(s.max_batch));
    return adds_up ? 0 : 1;
}
