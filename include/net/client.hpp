// net/client.hpp — the loopback client driver (DESIGN.md §11): replays the
// open-loop arrival schedules of workload/arrival.hpp over N real TCP
// connections against a SecServer (in-process or a separate secserve).
//
// Accounting contract: every request's identity is its schedule index
// (echoed by the server in the frame tag), and a reply is charged
// completion minus *scheduled* arrival (sojourn) — a reply delayed behind a
// backed-up connection or a stalled server is billed its full queueing
// delay even if the client fell behind its own schedule. RTT (reply minus
// actual send) is recorded side by side as the closed-loop contrast.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "workload/arrival.hpp"
#include "workload/histogram.hpp"

namespace sec::net {

struct LoopbackClientConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    unsigned connections = 2;
    // Offered load across ALL connections, Kops/s (the --load unit).
    double load_kops = 20.0;
    std::chrono::milliseconds duration{200};
    // Half the requests are pushes and half pops; a burst arrival takes
    // the fixed burst shape (kBurstPeriod, kBurstDuty).
    bench::ArrivalKind arrival = bench::ArrivalKind::kPoisson;
    std::uint64_t seed = 0;
};

struct LoopbackClientResult {
    bool ok = false;          // false: setup failed, see `error`
    std::string error;
    std::uint64_t sent = 0;
    std::uint64_t replies = 0;
    std::uint64_t lost = 0;   // sent - replies once the 5 s grace expired
    std::uint64_t pushes = 0;
    std::uint64_t pop_hits = 0;
    std::uint64_t pop_empties = 0;
    double offered_kops = 0;  // from the generated schedules
    double achieved_kops = 0; // replies / window
    double window_s = 0;      // epoch -> last reply
    bench::LatencyHistogram sojourn;  // reply - scheduled arrival
    bench::LatencyHistogram rtt;      // reply - actual send
};

// Connect cfg.connections sockets and replay one arrival schedule per
// connection from one paced loop on the calling thread, charging each reply
// as it is read. Blocking; returns when every sent request has its reply,
// or 5 s after the last send. A connection that fails stops there, and its
// unanswered requests count as lost.
LoopbackClientResult run_loopback_client(const LoopbackClientConfig& cfg);

}  // namespace sec::net
