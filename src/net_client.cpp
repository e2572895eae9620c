// net_client.cpp — the loopback client driver (net/client.hpp).
//
// One paced loop on the calling thread drives every connection over a
// non-blocking socket. Connection c replays its own arrival schedule
// (workload/arrival.hpp; seed phase_seed(seed, c, 0, 4)), and each frame's
// tag is the request's schedule index, which the reply echoes. Each pass
// sends every due request and decodes every ready reply. Between passes the
// loop spins while a send is due within kSpinMarginNs, and otherwise blocks
// in one ppoll over all the sockets, which a reply also ends. A sleep can
// wake up to the timer slack late, and that lateness would be billed to the
// server as sojourn, so the call runs with a 1 ns slack.
#include "net/client.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/common.hpp"
#include "net/protocol.hpp"
#include "workload/runner.hpp"

namespace sec::net {
namespace {

using Clock = std::chrono::steady_clock;

// The loop spins when a send is due within this margin: the wake-up
// latency of a sleep at 1 ns timer slack, with room to spare.
constexpr std::uint64_t kSpinMarginNs = 20'000;
// Replies still outstanding this long after the last send are lost.
constexpr std::uint64_t kDrainGraceNs = 5'000'000'000;
constexpr unsigned kPushPct = 50;  // the rest are pops

int connect_to(const std::string& host, std::uint16_t port,
               std::string* err) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        *err = "bad host '" + host + "'";
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        *err = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

// Sets the calling thread's timer slack to 1 ns for its lifetime and then
// restores the old value.
class TimerSlack {
public:
    TimerSlack() : old_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    }
    ~TimerSlack() {
        if (old_ > 0) ::prctl(PR_SET_TIMERSLACK, old_, 0UL, 0UL, 0UL);
    }
    TimerSlack(const TimerSlack&) = delete;
    TimerSlack& operator=(const TimerSlack&) = delete;

private:
    const long old_;
};

struct Lane {
    int fd = -1;
    bool open = true;  // false once the socket failed, closed or desynced
    std::vector<std::uint64_t> schedule;  // ns offsets from epoch
    std::vector<MsgType> kinds;           // kPushReq / kPopReq per index
    std::vector<std::uint64_t> send_ns;   // actual send, ns since epoch
    std::size_t next = 0;                 // requests sent so far
    std::uint64_t replies = 0;
    std::vector<std::uint8_t> out;  // frames not yet taken by the socket
    std::size_t out_off = 0;        // ...from here on
    std::vector<std::uint8_t> in;   // received bytes not yet decoded
};

std::uint64_t since(Clock::time_point epoch) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count());
}

// Encode every request due by `now` and send what the socket takes. False
// when the connection failed.
bool send_due(Lane& lane, std::uint64_t now) {
    for (; lane.next < lane.schedule.size() &&
           lane.schedule[lane.next] <= now;
         ++lane.next) {
        Message req;
        req.type = lane.kinds[lane.next];
        req.tag = lane.next;
        req.value = lane.next + 1;  // nonzero payload; identity is the tag
        encode(req, lane.out);
        lane.send_ns[lane.next] = now;
    }
    while (lane.out_off < lane.out.size()) {
        // MSG_NOSIGNAL: a server that drops the connection must cost lost
        // replies, not SIGPIPE.
        const ssize_t n = ::send(lane.fd, lane.out.data() + lane.out_off,
                                 lane.out.size() - lane.out_off, MSG_NOSIGNAL);
        if (n < 0) return errno == EINTR || errno == EAGAIN;
        lane.out_off += static_cast<std::size_t>(n);
    }
    lane.out.clear();
    lane.out_off = 0;
    return true;
}

// Read and charge every reply the socket holds. False when the server
// closed the connection, the read failed, or a frame did not decode.
bool read_replies(Lane& lane, Clock::time_point epoch,
                  LoopbackClientResult& res, std::uint64_t& last_reply_ns) {
    std::uint8_t chunk[16 * 1024];
    for (;;) {
        const ssize_t n = ::read(lane.fd, chunk, sizeof(chunk));
        if (n == 0) return false;
        if (n < 0) return errno == EINTR || errno == EAGAIN;
        const std::uint64_t now = since(epoch);
        lane.in.insert(lane.in.end(), chunk, chunk + n);
        std::size_t off = 0;
        Message resp;
        DecodeResult r;
        while ((r = decode(lane.in.data() + off, lane.in.size() - off, resp))
                   .status == DecodeStatus::kOk) {
            off += r.consumed;
            const std::uint64_t idx = resp.tag;
            if (idx >= lane.next) continue;  // never sent: unknown tag
            ++lane.replies;
            ++res.replies;
            last_reply_ns = now;
            const std::uint64_t sched = lane.schedule[idx];
            res.sojourn.record(now > sched ? now - sched : 0);
            const std::uint64_t sent_at = lane.send_ns[idx];
            res.rtt.record(now > sent_at ? now - sent_at : 0);
            if (resp.type == MsgType::kPopResp) {
                ++(resp.ok ? res.pop_hits : res.pop_empties);
            }
        }
        if (r.status == DecodeStatus::kError) return false;
        lane.in.erase(lane.in.begin(),
                      lane.in.begin() + static_cast<std::ptrdiff_t>(off));
    }
}

}  // namespace

LoopbackClientResult run_loopback_client(const LoopbackClientConfig& cfg) {
    LoopbackClientResult res;
    if (cfg.connections == 0) {
        res.error = "connections must be >= 1";
        return res;
    }
    if (cfg.port == 0) {
        res.error = "port must be set";
        return res;
    }

    const double lane_ops_s =
        cfg.load_kops * 1000.0 / static_cast<double>(cfg.connections);

    std::vector<Lane> lanes(cfg.connections);
    for (unsigned c = 0; c < cfg.connections; ++c) {
        Lane& lane = lanes[c];
        lane.fd = connect_to(cfg.host, cfg.port, &res.error);
        if (lane.fd < 0) {
            for (unsigned k = 0; k < c; ++k) ::close(lanes[k].fd);
            return res;
        }
        lane.schedule = bench::make_arrival_schedule(
            cfg.arrival, cfg.duration, lane_ops_s,
            bench::phase_seed(cfg.seed, c, 0, 4));
        Xoshiro256 rng(bench::phase_seed(cfg.seed, c, 0, 5));
        for (std::size_t i = 0; i < lane.schedule.size(); ++i) {
            const bool push = rng.next_below(100) < kPushPct;
            lane.kinds.push_back(push ? MsgType::kPushReq : MsgType::kPopReq);
            if (push) ++res.pushes;
        }
        lane.send_ns.assign(lane.schedule.size(), 0);
        res.sent += lane.schedule.size();
    }

    // One epoch for every lane, taken after all sockets are connected so no
    // lane starts its schedule while another is still in connect().
    const TimerSlack slack;
    const Clock::time_point epoch = Clock::now();
    std::vector<pollfd> fds(lanes.size());
    std::uint64_t last_reply_ns = 0;
    std::uint64_t drain_deadline = 0;  // set once every request is sent
    for (;;) {
        std::uint64_t now = 0;
        std::uint64_t next_due = std::numeric_limits<std::uint64_t>::max();
        bool waiting = false;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            Lane& lane = lanes[i];
            now = since(epoch);
            if (lane.open && !send_due(lane, now)) lane.open = false;
            if (lane.open && lane.next < lane.schedule.size()) {
                next_due = std::min(next_due, lane.schedule[lane.next]);
            }
            waiting = waiting || (lane.open && lane.replies < lane.next);
            const int events = lane.out.empty() ? POLLIN : POLLIN | POLLOUT;
            fds[i] = {lane.open ? lane.fd : -1, static_cast<short>(events), 0};
        }
        // Spin (wait 0) while a send is due within the margin; otherwise
        // sleep until the margin before it, or until the drain deadline.
        std::uint64_t wait_ns = 0;
        if (next_due == std::numeric_limits<std::uint64_t>::max()) {
            if (!waiting) break;  // every sent request has its reply
            if (drain_deadline == 0) drain_deadline = now + kDrainGraceNs;
            if (now >= drain_deadline) break;  // the rest are lost
            wait_ns = drain_deadline - now;
        } else if (next_due > now + kSpinMarginNs) {
            wait_ns = next_due - kSpinMarginNs - now;
        }
        const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                               static_cast<long>(wait_ns % 1'000'000'000)};
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (lanes[i].open && (fds[i].revents & ~POLLOUT) != 0 &&
                !read_replies(lanes[i], epoch, res, last_reply_ns)) {
                lanes[i].open = false;
            }
        }
    }
    for (const Lane& lane : lanes) ::close(lane.fd);

    // A request that was scheduled but never answered — its connection
    // failed, or the grace expired — counts as lost.
    res.lost = res.sent - res.replies;
    res.window_s = static_cast<double>(last_reply_ns) / 1e9;
    const double horizon_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            cfg.duration)
            .count();
    res.offered_kops = horizon_s > 0
                           ? static_cast<double>(res.sent) / horizon_s / 1000.0
                           : 0.0;
    res.achieved_kops =
        res.window_s > 0
            ? static_cast<double>(res.replies) / res.window_s / 1000.0
            : 0.0;
    res.ok = true;
    return res;
}

}  // namespace sec::net
