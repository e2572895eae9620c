// served.cpp — served_tcp: an open-loop generator against an in-process
// SecServer on loopback, serving the registry's SEC.
//
// Two connections, one generator thread each (a two-worker WorkerPool
// pinned after the server's loop thread). Each thread replays a Poisson
// schedule generated from the seed: on every pass it sends every request
// that is due and reads every reply that arrived. It spins while replies
// are outstanding or a send is near, and sleeps in ppoll() (1 ns timer
// slack) only through idle gaps, so a late wake-up of its own cpu is never
// charged to the server. Each request is timed three ways: lag = actual
// send - scheduled send, rtt = reply - actual send, and sojourn = reply -
// scheduled send, the figure a user sees.
//
// A run measures two fixed offered rates (`low`, `high`), then the
// capacity: the rate at which the server completes requests when each
// connection keeps kSaturationWindow of them in flight (a closed loop), in
// bursts whose median rate is reported.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "exec/worker_pool.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "reclaim/epoch.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sec::net::Message;
using sec::net::MsgType;

constexpr unsigned kConns = 2;
constexpr double kLowKops = 50;
constexpr double kHighKops = 150;
// Shares of --seconds: the two fixed rates, then the capacity bursts.
constexpr double kLowShare = 0.3;
constexpr double kHighShare = 0.4;
constexpr double kSaturationShare = 0.25;
// Capacity: requests kept in flight per connection, and the requests per
// connection in one burst (~60 ms at ~1.3 Mops/s). The first
// and last kSaturationWindow requests of a burst ramp up and down; against
// a burst they are noise.
constexpr std::uint64_t kSaturationWindow = 16;
constexpr std::uint64_t kBurstRequests = 40'000;
constexpr int kMinBursts = 5;
// An untraced run measures this many fresh set-ups (server, stack and
// connections), each for 1 / kRigs of the phases, and pools their windows
// and bursts: set-ups in one process differ by ~7 %, and one set-up must
// not decide the run.
constexpr int kRigs = 8;
// A fixed-rate phase whose lag p99 passes this bound is invalid. A
// generator that cannot keep up falls further behind through the phase,
// while host stalls of a shared VM keep the windowed lag p99 at a few ms
// at most.
constexpr double kLagBoundNs = 5'000'000;
// Per-connection cap on pops minus pushes (OpStream); the prefill covers it.
constexpr std::int64_t kMaxDeficit = 1 << 15;
// A connection stops sending for the phase once this many of its requests
// await a reply: ~270 ms of backlog at the high rate. Host stalls of 100+
// ms leave backlogs that drain once they end, while a server that cannot
// sustain the rate is stopped before it drowns.
constexpr std::uint64_t kMaxOutstanding = 20000;
constexpr std::uint64_t kGraceNs = 5'000'000'000;  // wait for late replies
constexpr std::uint64_t kStartNs = 2'000'000;      // epoch after the barrier
constexpr std::uint64_t kSpinNs = 200'000;  // generator spins this close to a send
constexpr std::uint64_t kKeepEvery = 64;  // traced: 1 request in N kept whole
constexpr std::uint64_t kMatchNs = 10'000'000;  // longest round trip matched
constexpr int kSetups = 15;
constexpr double kWarmupS = 0.3;
// Percentiles are medians over sub-windows of this length (median_over).
// Host stalls of a few ms come several times a second; at 50 ms most
// windows miss them, and each still holds ~2500 requests at the low rate
// (25 past its p99).
constexpr double kWindowS = 0.05;
constexpr std::uint64_t kLostNs = std::uint64_t{1} << 50;  // past any limit

// ---- the container decorator ---------------------------------------------

// The AnyStack::Model handed to SecServer: forwards every call to the
// registry-built SEC and, while timing is on, records each push and pop
// the server applies. Only the server's loop thread calls push/pop; the
// records are read after the server stops.
class TimedStack final : public sec::AnyStack::Model {
public:
    struct Apply {
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        Op op;
        std::uint64_t value;  // a push's value (its request's tag)
    };

    explicit TimedStack(sec::AnyStack inner) : inner_(std::move(inner)) {}

    void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
    // Room for `n` records, reserved while the server is idle so the loop
    // thread never reallocates; records past it are counted, not kept.
    void reserve(std::size_t n) { applies_.reserve(n); }
    const std::vector<Apply>& applies() const { return applies_; }
    std::uint64_t dropped() const { return dropped_; }

    bool push(std::uint64_t v) override {
        if (!timing_.load(std::memory_order_relaxed)) return inner_.push(v);
        const std::uint64_t t0 = now_ns();
        const bool ok = inner_.push(v);
        record(t0, Op::kPush, v);
        return ok;
    }
    std::optional<std::uint64_t> pop() override {
        if (!timing_.load(std::memory_order_relaxed)) return inner_.pop();
        const std::uint64_t t0 = now_ns();
        auto v = inner_.pop();
        record(t0, Op::kPop, 0);
        return v;
    }
    std::optional<std::uint64_t> peek() override { return inner_.peek(); }
    sec::ContainerShape shape() const override { return inner_.shape(); }

    void prefill(std::size_t count, const sec::PhaseArgs& args) override {
        inner_.prefill(count, args);
    }
    std::uint64_t mixed_until(const std::atomic<bool>& stop,
                              const sec::PhaseArgs& args) override {
        return inner_.mixed_until(stop, args);
    }
    std::uint64_t mixed_ops(std::uint64_t count,
                            const sec::PhaseArgs& args) override {
        return inner_.mixed_ops(count, args);
    }
    std::uint64_t timed_until(const std::atomic<bool>& stop,
                              const sec::PhaseArgs& args,
                              LatencyHistogram& hist) override {
        return inner_.timed_until(stop, args, hist);
    }
    std::uint64_t serve_produce(const sec::ServeProduceArgs& args) override {
        return inner_.serve_produce(args);
    }
    std::uint64_t serve_consume(const std::atomic<bool>& stop,
                                const sec::ServeConsumeArgs& args,
                                LatencyHistogram& sojourn,
                                LatencyHistogram& service) override {
        return inner_.serve_consume(stop, args, sojourn, service);
    }
    bool has_stats() const override { return inner_.has_stats(); }
    sec::StatsSnapshot stats() const override { return inner_.stats(); }

private:
    void record(std::uint64_t t0, Op op, std::uint64_t value) {
        const std::uint64_t t1 = now_ns();
        if (applies_.size() < applies_.capacity()) {
            applies_.push_back({t0, t1, op, value});
        } else {
            ++dropped_;
        }
    }

    sec::AnyStack inner_;
    std::atomic<bool> timing_{false};
    std::vector<Apply> applies_;
    std::uint64_t dropped_ = 0;
};

// ---- the generator -------------------------------------------------------

// One connection's record of one phase. Times are absolute steady-clock ns;
// 0 means "never" (not sent / no reply).
struct PhaseLog {
    std::uint64_t first_seq = 0;  // tag seq of request 0
    std::vector<std::uint64_t> due;
    std::vector<Op> ops;
    std::vector<std::uint64_t> sent;
    std::vector<std::uint64_t> reply;
    std::uint64_t sent_count = 0;
    std::uint64_t replies = 0;
    std::uint64_t empties = 0;    // pops answered "empty"
    std::uint64_t bad = 0;        // wrong reply type, refused push, unknown tag
    std::uint64_t dups = 0;       // a second reply to one tag
    bool aborted = false;         // stopped sending: backlog past the cap
    bool dropped = false;         // the connection failed
    std::uint64_t codec_ns = 0;   // traced: encode + decode time
    std::uint64_t codec_frames = 0;
};

struct Gen {
    Gen(unsigned index, std::uint64_t seed)
        : ops(stream(seed, Purpose::kOps, index), 50, 50, kMaxDeficit),
          ledger(kConns + 1) {}

    int fd = -1;
    int cpu = -1;
    std::string err;
    OpStream ops;
    std::uint64_t next_seq = 0;  // tags handed out so far
    Ledger ledger;
    PhaseLog log;
    // Totals over every phase, for the final STATS check.
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t empties = 0;
    std::optional<sec::net::WireStats> wire;
};

enum class Cmd { kRun, kStats, kExit };

int connect_loopback(std::uint16_t port, std::string& err) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        err = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

class Driver {
public:
    // `window` > 0 makes a closed loop: at most that many requests in
    // flight, each sent as soon as it is due and there is room.
    Driver(Gen& g, unsigned conn, bool traced, std::uint64_t window)
        : g_(g), log_(g.log), source_(conn + 1), traced_(traced),
          window_(window) {}

    // Replay g.log's schedule until every sent request has its reply, or
    // `deadline` passes.
    void run(std::uint64_t deadline) {
        const std::size_t n = log_.due.size();
        std::size_t next = 0;
        std::uint64_t now = 0;
        auto may_send = [&] {
            return next < n && log_.due[next] <= now &&
                   (window_ == 0 || next - log_.replies < window_);
        };
        for (;;) {
            now = now_ns();
            if (!log_.aborted && may_send()) {
                const std::size_t first = next;
                const std::uint64_t t0 = traced_ ? now_ns() : 0;
                while (may_send()) encode(next++);
                const std::uint64_t t = now_ns();
                if (traced_) add_codec(t0, t, next - first);
                for (std::size_t i = first; i < next; ++i) log_.sent[i] = t;
                log_.sent_count += next - first;
                if (log_.sent_count - log_.replies > kMaxOutstanding) {
                    log_.aborted = true;
                }
            }
            if (!flush() || !read_replies()) {
                log_.dropped = true;
                return;
            }
            const bool all_sent = log_.aborted || next == n;
            const bool waiting = log_.replies < log_.sent_count;
            if (all_sent && !waiting) return;
            now = now_ns();
            if (now > deadline) return;
            // Spin while a reply is due or a send is near, so neither waits
            // for a sleeping cpu to wake; sleep only through long idle gaps.
            if (!all_sent && !waiting && log_.due[next] > now + kSpinNs) {
                wait(log_.due[next] - now - kSpinNs);
            }
        }
    }

    // One STATS round trip; the reply lands in g.wire.
    void stats(std::uint64_t deadline) {
        Message req;
        req.type = MsgType::kStatsReq;
        req.tag = make_tag(source_, g_.next_seq);
        sec::net::encode(req, out_);
        while (!g_.wire && now_ns() < deadline) {
            if (!flush() || !read_replies()) return;
            if (!g_.wire) wait(1'000'000);
        }
    }

private:
    void encode(std::size_t i) {
        Message m;
        m.type = log_.ops[i] == Op::kPush ? MsgType::kPushReq : MsgType::kPopReq;
        m.tag = make_tag(source_, log_.first_seq + i);
        m.value = m.tag;
        sec::net::encode(m, out_);
    }

    void add_codec(std::uint64_t t0, std::uint64_t t1, std::size_t frames) {
        log_.codec_ns += t1 - t0;
        log_.codec_frames += frames;
    }

    bool flush() {
        while (out_off_ < out_.size()) {
            const ssize_t k = ::send(g_.fd, out_.data() + out_off_,
                                     out_.size() - out_off_, MSG_NOSIGNAL);
            if (k > 0) {
                out_off_ += static_cast<std::size_t>(k);
                continue;
            }
            if (k < 0 && errno == EINTR) continue;
            if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
            return false;
        }
        out_.clear();
        out_off_ = 0;
        return true;
    }

    bool read_replies() {
        for (;;) {
            if (in_.size() - in_len_ < 16384) in_.resize(in_len_ + 65536);
            const ssize_t k =
                ::recv(g_.fd, in_.data() + in_len_, in_.size() - in_len_, 0);
            if (k == 0) return false;
            if (k < 0) {
                if (errno == EINTR) continue;
                return errno == EAGAIN || errno == EWOULDBLOCK;
            }
            const std::uint64_t t = now_ns();
            in_len_ += static_cast<std::size_t>(k);
            std::size_t off = 0;
            std::size_t frames = 0;
            for (;;) {
                Message m;
                const auto r =
                    sec::net::decode(in_.data() + off, in_len_ - off, m);
                if (r.status == sec::net::DecodeStatus::kNeedMore) break;
                if (r.status == sec::net::DecodeStatus::kError) return false;
                off += r.consumed;
                ++frames;
                on_reply(m, t);
            }
            if (traced_) add_codec(t, now_ns(), frames);
            std::memmove(in_.data(), in_.data() + off, in_len_ - off);
            in_len_ -= off;
        }
    }

    void on_reply(const Message& m, std::uint64_t t) {
        if (m.type == MsgType::kStatsResp) {
            g_.wire = m.stats;
            return;
        }
        const std::uint64_t seq = tag_seq(m.tag);
        if (tag_source(m.tag) != source_ || seq < log_.first_seq ||
            seq - log_.first_seq >= log_.due.size()) {
            ++log_.bad;
            return;
        }
        const std::size_t i = seq - log_.first_seq;
        if (log_.reply[i] != 0) {
            ++log_.dups;
            return;
        }
        if (log_.sent[i] == 0) {
            ++log_.bad;
            return;
        }
        log_.reply[i] = t;
        ++log_.replies;
        if (log_.ops[i] == Op::kPush) {
            if (m.type != MsgType::kPushResp || !m.ok) {
                ++log_.bad;
                return;
            }
            g_.ledger.pushed(m.tag);
            ++g_.pushes;
        } else {
            if (m.type != MsgType::kPopResp) {
                ++log_.bad;
            } else if (m.ok) {
                g_.ledger.removed(m.value);
                ++g_.pops;
            } else {
                ++log_.empties;
                ++g_.empties;
            }
        }
    }

    void wait(std::uint64_t ns) {
        pollfd p{};
        p.fd = g_.fd;
        p.events = static_cast<short>(POLLIN |
                                      (out_off_ < out_.size() ? POLLOUT : 0));
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
        ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
        ::ppoll(&p, 1, &ts, nullptr);
    }

    Gen& g_;
    PhaseLog& log_;
    std::uint64_t source_;
    bool traced_;
    std::uint64_t window_;
    std::vector<std::uint8_t> out_;
    std::size_t out_off_ = 0;
    std::vector<std::uint8_t> in_;
    std::size_t in_len_ = 0;
};

// ---- one set-up ------------------------------------------------------------

struct Rig {
    explicit Rig(std::uint64_t seed) : main_ledger(kConns + 1) {
        for (unsigned c = 0; c < kConns; ++c) gens.emplace_back(c, seed);
    }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    // Declaration order is teardown order in reverse: the server (owning
    // the stack) goes before the domain the stack borrows.
    sec::reclaim::DomainHandle domain;
    std::unique_ptr<sec::net::SecServer> server;
    TimedStack* stack = nullptr;  // owned by the server
    std::vector<Gen> gens;
    std::unique_ptr<sec::exec::WorkerPool> pool;
    Ledger main_ledger;  // the prefill and the final drain
    std::uint64_t prefilled = 0;
    // Written by the coordinator before a pool barrier, read after it.
    Cmd cmd = Cmd::kRun;
    std::uint64_t deadline = 0;
    bool traced = false;
    std::uint64_t window = 0;  // closed loop: requests in flight per connection
};

void gen_main(Rig& r, std::uint16_t port, sec::exec::WorkerContext& ctx) {
    Gen& g = r.gens[ctx.index];
    g.cpu = ctx.cpu;
    // Wake at the due time, not up to 50 µs after it (the default slack).
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    g.fd = connect_loopback(port, g.err);
    ctx.sync();  // connected: ends the set-up
    for (;;) {
        ctx.sync();
        if (r.cmd == Cmd::kExit) break;
        if (g.fd >= 0) {
            Driver d(g, ctx.index, r.traced, r.window);
            if (r.cmd == Cmd::kRun) {
                d.run(r.deadline);
            } else if (ctx.index == 0) {
                d.stats(r.deadline);
            }
        }
        ctx.sync();
    }
    if (g.fd >= 0) ::close(g.fd);
    g.fd = -1;
}

std::unique_ptr<Rig> set_up(std::uint64_t seed, bool collect_stats,
                            SetupTimes& t, std::string& err) {
    const std::uint64_t t0 = now_ns();
    auto rig = std::make_unique<Rig>(seed);
    Rig& r = *rig;
    r.domain = sec::reclaim::DomainHandle::make<sec::reclaim::EpochDomain>();
    // As secserve builds it: the registry's SEC with threads = 2, borrowing
    // the benchmark's EBR domain.
    sec::bench::StackParams params;
    params.threads = 2;
    params.domain = &r.domain;
    sec::Config cfg = sec::bench::effective_stack_config(params);
    cfg.collect_stats = collect_stats;
    if (collect_stats) params.config = &cfg;
    const sec::bench::AlgoSpec* spec =
        sec::bench::AlgorithmRegistry::instance().find("SEC");
    if (spec == nullptr) {
        err = "the algorithm registry has no SEC";
        return nullptr;
    }
    auto timed = std::make_unique<TimedStack>(spec->make(params));
    r.prefilled = kConns * static_cast<std::uint64_t>(kMaxDeficit) + 64;
    on_pool_thread([&r, &timed] {
        for (std::uint64_t i = 0; i < r.prefilled; ++i) {
            const std::uint64_t tag = make_tag(0, i);
            timed->push(tag);
            r.main_ledger.pushed(tag);
        }
    });
    r.stack = timed.get();
    sec::net::ServerConfig scfg;
    scfg.pin = sec::topo::PinPolicy::kCompact;
    r.server = std::make_unique<sec::net::SecServer>(
        sec::AnyStack(std::move(timed)), scfg);
    if (!r.server->start(&err)) return nullptr;

    const std::uint64_t t1 = now_ns();
    sec::exec::PoolOptions popts;
    popts.pin = sec::topo::PinPolicy::kCompact;
    popts.plan_offset = 1;  // the server's loop thread holds plan slot 0
    r.pool = std::make_unique<sec::exec::WorkerPool>(kConns, popts);
    const std::uint16_t port = r.server->port();
    r.pool->start(
        [&r, port](sec::exec::WorkerContext& ctx) { gen_main(r, port, ctx); });
    r.pool->sync();
    const std::uint64_t t2 = now_ns();
    for (const Gen& g : r.gens) {
        if (g.fd < 0) err = g.err;
    }
    t.total_s = static_cast<double>(t2 - t0) / 1e9;
    t.start_ms = static_cast<double>(t2 - t1) / 1e6;
    return rig;
}

void stop_gens(Rig& r) {
    r.cmd = Cmd::kExit;
    r.pool->sync();
    r.pool->join();
}

// ---- phases ----------------------------------------------------------------

// What one phase measured. Latencies are in ns.
struct PhaseResult {
    double offered_kops = 0;  // open loop: scheduled requests per second
    double rate_kops = 0;     // closed loop: completed requests per second
    Percentiles sojourn;      // whole phase
    Percentiles rtt;
    Percentiles lag;
    Percentiles sojourn_w;  // medians over kWindowS sub-windows: the gated figures
    Percentiles lag_w;
    LatencyHistogram sojourn_all;          // open loop: whole phase, and
    std::vector<Percentiles> sojourn_wins;  //   each sub-window's figures
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t failed = 0;  // empties + bad replies + lost
    bool aborted = false;
    bool dropped = false;
    std::uint64_t dups = 0;
    std::uint64_t bad = 0;
    double reqs_per_batch = 0;
    std::uint64_t codec_ns = 0;
    std::uint64_t codec_frames = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    double rss_mb = 0;  // peak resident memory over the phase (open loop)

    bool lagged() const { return lag_w.p99 > kLagBoundNs; }
};

class Phases {
public:
    Phases(Rig& r, std::uint64_t seed) : r_(r), seed_(seed) {}

    // Open loop: Poisson arrivals at `kops` over `seconds`.
    PhaseResult open(double kops, double seconds, bool traced,
                     SpanBuffer* trace = nullptr, std::uint64_t parent = 0) {
        const unsigned id = next_id_++;
        std::uint64_t scheduled = 0;
        for (unsigned c = 0; c < kConns; ++c) {
            Gen& g = r_.gens[c];
            scheduled += load(g, make_schedule(stream(seed_, Purpose::kArrivals,
                                                      id * kConns + c),
                                               g.ops, kops * 1000 / kConns,
                                               seconds));
        }
        const auto length = static_cast<std::uint64_t>(seconds * 1e9);
        PhaseResult p = play(length, 0, traced);
        p.offered_kops = static_cast<double>(scheduled) / seconds / 1000;

        const auto windows = static_cast<std::size_t>(
            std::max(1.0, std::round(seconds / kWindowS)));
        std::vector<LatencyHistogram> sojourn_win(windows), lag_win(windows);
        LatencyHistogram sojourn, rtt, lag;
        const double window_ns = static_cast<double>(length) /
                                 static_cast<double>(windows);
        for (unsigned c = 0; c < kConns; ++c) {
            const PhaseLog& log = r_.gens[c].log;
            for (std::size_t i = 0; i < log.due.size(); ++i) {
                if (log.sent[i] == 0) continue;
                const auto win = std::min<std::size_t>(
                    static_cast<std::size_t>(
                        static_cast<double>(log.due[i] - p.start_ns) /
                        window_ns),
                    windows - 1);
                lag.record(log.sent[i] - log.due[i]);
                lag_win[win].record(log.sent[i] - log.due[i]);
                const std::uint64_t so =
                    log.reply[i] ? log.reply[i] - log.due[i] : kLostNs;
                sojourn.record(so);
                sojourn_win[win].record(so);
                if (log.reply[i] == 0) continue;
                rtt.record(log.reply[i] - log.sent[i]);
                if (trace != nullptr && i % kKeepEvery == 0) {
                    add_request_spans(*trace, parent, log, i, c);
                }
            }
        }
        p.sojourn = percentiles(sojourn);
        p.rtt = percentiles(rtt);
        p.lag = percentiles(lag);
        p.sojourn_all = sojourn;
        std::vector<Percentiles> lag_wins;
        for (std::size_t w = 0; w < windows; ++w) {
            p.sojourn_wins.push_back(percentiles(sojourn_win[w]));
            lag_wins.push_back(percentiles(lag_win[w]));
        }
        p.sojourn_w = median_over(p.sojourn_wins);
        p.lag_w = median_over(lag_wins);
        return p;
    }

    // Closed loop: `requests` per connection, all due at once, with at
    // most kSaturationWindow in flight per connection.
    PhaseResult burst(std::uint64_t requests) {
        for (Gen& g : r_.gens) {
            Schedule s;
            s.due_ns.assign(requests, 0);
            for (std::uint64_t i = 0; i < requests; ++i) {
                s.ops.push_back(g.ops.next());
            }
            load(g, std::move(s));
        }
        PhaseResult p = play(0, kSaturationWindow, false);
        std::uint64_t last = p.start_ns;
        for (const Gen& g : r_.gens) {
            for (const std::uint64_t t : g.log.reply) last = std::max(last, t);
        }
        const std::uint64_t done = p.sent - p.lost;
        p.rate_kops = last > p.start_ns
                          ? static_cast<double>(done) /
                                (static_cast<double>(last - p.start_ns) / 1e6)
                          : 0;
        return p;
    }

    // A traced request kept whole: its net.rtt span and what it asked for.
    struct Kept {
        std::uint64_t rtt_id;
        std::uint64_t req_id;
        std::uint64_t sent_ns;
        std::uint64_t reply_ns;
        std::uint64_t tag;
        Op op;
    };
    const std::vector<Kept>& kept() const { return kept_; }

private:
    // Make `s` the connection's schedule for the next phase; returns its
    // request count.
    static std::uint64_t load(Gen& g, Schedule s) {
        PhaseLog& log = g.log;
        log = PhaseLog{};
        log.first_seq = g.next_seq;
        log.due = std::move(s.due_ns);
        log.ops = std::move(s.ops);
        log.sent.assign(log.due.size(), 0);
        log.reply.assign(log.due.size(), 0);
        g.next_seq += log.due.size();
        return log.due.size();
    }

    // Run the generators through the loaded schedules and tally what every
    // connection saw. The clock starts once every schedule exists, so
    // generating them never makes the first requests late.
    PhaseResult play(std::uint64_t length_ns, std::uint64_t window,
                     bool traced) {
        const std::uint64_t epoch = now_ns() + kStartNs;
        for (Gen& g : r_.gens) {
            for (std::uint64_t& d : g.log.due) d += epoch;
        }
        PhaseResult p;
        p.start_ns = epoch;
        p.end_ns = epoch + length_ns;
        r_.cmd = Cmd::kRun;
        r_.deadline = p.end_ns + kGraceNs;
        r_.traced = traced;
        r_.window = window;
        r_.stack->set_timing(traced);
        const sec::net::ServerStats s0 = r_.server->stats();
        r_.pool->sync();
        if (length_ns > 0) p.rss_mb = window_peak_rss_mb(p.end_ns);
        r_.pool->sync();
        const sec::net::ServerStats s1 = r_.server->stats();
        r_.stack->set_timing(false);

        for (const Gen& g : r_.gens) {
            const PhaseLog& log = g.log;
            p.sent += log.sent_count;
            p.lost += log.sent_count - log.replies;
            p.failed += log.empties + log.bad;
            p.aborted = p.aborted || log.aborted;
            p.dropped = p.dropped || log.dropped;
            p.dups += log.dups;
            p.bad += log.bad;
            p.codec_ns += log.codec_ns;
            p.codec_frames += log.codec_frames;
        }
        p.failed += p.lost;
        const std::uint64_t batches = s1.batches - s0.batches;
        p.reqs_per_batch =
            batches ? static_cast<double>(s1.requests - s0.requests) /
                          static_cast<double>(batches)
                    : 0;
        return p;
    }

    void add_request_spans(SpanBuffer& trace, std::uint64_t parent,
                           const PhaseLog& log, std::size_t i, unsigned c) {
        const std::uint64_t req = trace.reserve_id();
        trace.add("req", log.due[i], log.reply[i], parent, req, req);
        trace.add("gen.wait", log.due[i], log.sent[i], req, req);
        const std::uint64_t rtt =
            trace.add("net.rtt", log.sent[i], log.reply[i], req, req);
        kept_.push_back({rtt, req, log.sent[i], log.reply[i],
                         make_tag(c + 1, log.first_seq + i), log.ops[i]});
    }

    std::vector<Kept> kept_;
    Rig& r_;
    std::uint64_t seed_;
    unsigned next_id_ = 0;
};

void count_phase(const PhaseResult& p, RunResult& res) {
    res.attempted += p.sent;
    res.failed += p.failed;
}

// Every request got exactly one well-formed reply; `fixed_rate` adds the
// checks that make a fixed-rate phase invalid: the generator lagged, or a
// connection fell kMaxOutstanding requests behind.
void check_phase(const char* name, const PhaseResult& p, bool fixed_rate,
                 RunResult& res) {
    auto v = [&](const std::string& what) {
        res.violation(std::string("served_tcp ") + name + ": " + what);
    };
    if (p.lost) v(std::to_string(p.lost) + " requests never got a reply");
    if (p.dups) v(std::to_string(p.dups) + " requests got a second reply");
    if (p.bad) v(std::to_string(p.bad) + " malformed or mismatched replies");
    if (p.dropped) v("a connection was dropped");
    if (fixed_rate && p.aborted) {
        v("fell " + std::to_string(kMaxOutstanding) +
          " requests behind the offered rate on a connection");
    }
    if (fixed_rate && p.lagged()) {
        char buf[120];
        std::snprintf(buf, sizeof(buf),
                      "generator lag p99 %.1f us > bound %.0f us: run invalid",
                      p.lag_w.p99 / 1e3, kLagBoundNs / 1e3);
        v(buf);
    }
}

// A fixed-rate phase, measured again once when a host stall made the
// generator lag or backed a connection up to kMaxOutstanding; those
// checks judge the second attempt, the reply checks both.
PhaseResult fixed_phase(Phases& phases, const char* name, double kops,
                        double seconds, bool traced, RunResult& res,
                        SpanBuffer* trace = nullptr, std::uint64_t parent = 0) {
    PhaseResult p = phases.open(kops, seconds, traced, trace, parent);
    count_phase(p, res);
    if (p.lagged() || p.aborted) {
        check_phase(name, p, false, res);
        std::printf("  note: phase %s lagged (lag p99 %.1f us%s); measured "
                    "again\n",
                    name, p.lag_w.p99 / 1e3, p.aborted ? ", backlog cap" : "");
        p = phases.open(kops, seconds, traced, trace, parent);
        count_phase(p, res);
    }
    check_phase(name, p, true, res);
    return p;
}

// Capacity: closed-loop bursts for `seconds` (at least kMinBursts);
// returns each burst's completion rate, Kops/s.
std::vector<double> saturate(Phases& phases, double seconds, RunResult& res) {
    std::vector<double> rates;
    const std::uint64_t until =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    while (rates.size() < static_cast<std::size_t>(kMinBursts) ||
           now_ns() < until) {
        const PhaseResult p = phases.burst(kBurstRequests);
        count_phase(p, res);
        check_phase("capacity", p, false, res);
        if (p.lost != 0 || p.dropped) break;
        rates.push_back(p.rate_kops);
    }
    return rates;
}

// Parent each server-side container call on a kept request's net.rtt span.
// A push carries its request's tag as the value, so it matches exactly; a
// pop goes to the earliest unclaimed kept pop whose round trip covers it.
// Calls for requests that were not kept get no span (they are still in the
// histograms).
void match_applies(const std::vector<TimedStack::Apply>& applies,
                   const std::vector<Phases::Kept>& kept, SpanBuffer& out) {
    std::unordered_map<std::uint64_t, const Phases::Kept*> pushes;
    std::vector<const Phases::Kept*> pops;
    for (const Phases::Kept& k : kept) {
        if (k.op == Op::kPush) {
            pushes.emplace(k.tag, &k);
        } else {
            pops.push_back(&k);
        }
    }
    std::sort(pops.begin(), pops.end(), [](const auto* a, const auto* b) {
        return a->sent_ns < b->sent_ns;
    });
    std::vector<bool> claimed(pops.size(), false);
    auto covers = [](const Phases::Kept& k, const TimedStack::Apply& a) {
        return k.sent_ns <= a.start_ns && a.end_ns <= k.reply_ns;
    };
    for (const TimedStack::Apply& a : applies) {
        const Phases::Kept* hit = nullptr;
        if (a.op == Op::kPush) {
            const auto it = pushes.find(a.value);
            if (it != pushes.end() && covers(*it->second, a)) hit = it->second;
        } else {
            // Kept pops sent before the call began, oldest first.
            std::size_t i = static_cast<std::size_t>(
                std::upper_bound(pops.begin(), pops.end(), a.start_ns,
                                 [](std::uint64_t t, const auto* k) {
                                     return t < k->sent_ns;
                                 }) -
                pops.begin());
            std::size_t first = i;
            while (first > 0 && pops[first - 1]->sent_ns + kMatchNs > a.start_ns) {
                --first;
            }
            for (std::size_t j = first; j < i; ++j) {
                if (!claimed[j] && covers(*pops[j], a)) {
                    claimed[j] = true;
                    hit = pops[j];
                    break;
                }
            }
        }
        if (hit != nullptr) {
            out.add("net.apply", a.start_ns, a.end_ns, hit->rtt_id, hit->req_id);
        }
    }
}

// ---- teardown ----------------------------------------------------------------

// Stop everything, drain the stack, and check conservation plus the final
// STATS reply against the server's counters and the generator's tallies.
Teardown tear_down(Rig& r, RunResult& res) {
    Teardown t;
    r.cmd = Cmd::kStats;
    r.deadline = now_ns() + kGraceNs;
    r.pool->sync();
    r.pool->sync();
    const std::uint64_t t0 = now_ns();
    stop_gens(r);
    const std::uint64_t t1 = now_ns();
    r.server->stop();
    const sec::net::ServerStats ss = r.server->stats();

    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t empties = 0;
    Ledger all = r.main_ledger;
    std::vector<std::uint64_t> seq_end{r.prefilled};
    for (const Gen& g : r.gens) {
        pushes += g.pushes;
        pops += g.pops;
        empties += g.empties;
        all.merge(g.ledger);
        seq_end.push_back(g.next_seq);
    }
    on_pool_thread([&r, &all] {
        while (const auto v = r.stack->pop()) all.removed(*v);
    });
    for (std::string& v : all.verify(seq_end)) {
        res.violation("served_tcp: " + v);
    }

    const auto& w = r.gens[0].wire;
    auto mismatch = [&](const char* what, std::uint64_t wire,
                        std::uint64_t server, std::uint64_t gen) {
        if (wire == server && server == gen) return;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "served_tcp: STATS %s: wire %llu, server %llu, "
                      "generator %llu",
                      what, static_cast<unsigned long long>(wire),
                      static_cast<unsigned long long>(server),
                      static_cast<unsigned long long>(gen));
        res.violation(buf);
    };
    if (!w) {
        res.violation("served_tcp: no reply to the final STATS request");
    } else {
        mismatch("pushes", w->pushes, ss.pushes, pushes);
        mismatch("pops", w->pops, ss.pops, pops);
        mismatch("empties", w->empties, ss.empties, empties);
        // Every request was applied: the ops plus the one STATS request.
        mismatch("requests", ss.requests - 1, pushes + pops + empties,
                 pushes + pops + empties);
    }

    const std::uint64_t t2 = now_ns();
    r.domain.drain_all();
    t.join_ms = static_cast<double>(t1 - t0) / 1e6;
    t.drain_ms = static_cast<double>(now_ns() - t2) / 1e6;
    return t;
}

void shut_down(Rig& r) {
    stop_gens(r);
    r.server->stop();
}

// The measured rigs are the process's first set-ups (see closed_loop.cpp);
// more are timed after them, kSetups in all.
std::unique_ptr<Rig> set_up_checked(std::uint64_t seed, bool collect_stats,
                                    std::vector<SetupTimes>& times,
                                    RunResult& res) {
    std::string err;
    times.emplace_back();
    auto rig = set_up(seed, collect_stats, times.back(), err);
    if (err.empty()) return rig;
    res.violation("served_tcp: set-up failed: " + err);
    if (rig) shut_down(*rig);
    return nullptr;
}

void time_more_setups(std::uint64_t seed, bool collect_stats,
                      std::vector<SetupTimes>& times, RunResult& res) {
    while (times.size() < static_cast<std::size_t>(kSetups)) {
        auto rig = set_up_checked(seed, collect_stats, times, res);
        if (!rig) return;
        shut_down(*rig);
    }
}

void print_phase(const char* name, const PhaseResult& p) {
    std::printf(
        "  phase %-5s offered %7.1f Kops/s  sojourn mean %7.1f p50 %7.1f "
        "p90 %7.1f p99 %8.1f us  lag p99 %6.1f us  reqs/batch %.2f\n",
        name, p.offered_kops, p.sojourn_w.mean / 1e3, p.sojourn_w.p50 / 1e3,
        p.sojourn_w.p90 / 1e3, p.sojourn_w.p99 / 1e3, p.lag_w.p99 / 1e3,
        p.reqs_per_batch);
}

// One fixed rate's sojourns pooled over the rigs: whole-phase figures and
// the medians over every rig's sub-windows.
struct Pooled {
    Percentiles whole;
    Percentiles windowed;
};

Pooled pool(const std::vector<PhaseResult>& phases) {
    LatencyHistogram all;
    std::vector<Percentiles> wins;
    for (const PhaseResult& p : phases) {
        all.merge_from(p.sojourn_all);
        wins.insert(wins.end(), p.sojourn_wins.begin(), p.sojourn_wins.end());
    }
    return {percentiles(all), median_over(wins)};
}

// How a pooled sojourn figure was taken, with its whole-phase value.
std::string window_note(const Pooled& p, double whole_ns) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu, median of %d x %.0f ms windows (>= %llu each); "
                  "whole phase %.1f us, max <= %.1f us",
                  static_cast<unsigned long long>(p.whole.n), kRigs,
                  kWindowS * 1e3,
                  static_cast<unsigned long long>(p.windowed.n),
                  whole_ns / 1e3, p.whole.max / 1e3);
    return buf;
}

RunResult run_untraced(const RunOptions& opts) {
    RunResult res;
    std::vector<SetupTimes> setups;
    std::vector<PhaseResult> lows, highs;
    std::vector<double> rates;
    const double secs = opts.seconds / kRigs;
    for (int k = 0; k < kRigs; ++k) {
        auto rig = set_up_checked(opts.seed, false, setups, res);
        if (!rig) return res;
        if (k == 0) {
            for (const Gen& g : rig->gens) res.cpus.push_back(g.cpu);
        }
        Phases phases(*rig, opts.seed);
        const PhaseResult warm = phases.open(kLowKops, kWarmupS, false);
        count_phase(warm, res);
        check_phase("warmup", warm, false, res);
        lows.push_back(fixed_phase(phases, "low", kLowKops, kLowShare * secs,
                                   false, res));
        highs.push_back(fixed_phase(phases, "high", kHighKops,
                                    kHighShare * secs, false, res));
        const std::vector<double> r =
            saturate(phases, kSaturationShare * secs, res);
        rates.insert(rates.end(), r.begin(), r.end());
        tear_down(*rig, res);
        print_phase("low", lows.back());
        print_phase("high", highs.back());
    }
    time_more_setups(opts.seed, false, setups, res);

    std::printf("workload served_tcp: open loop, %u connections, Poisson "
                "50/50 push/pop, SecServer(epoll) serving registry SEC\n",
                kConns);
    const Pooled low = pool(lows);
    const Pooled high = pool(highs);
    const double capacity = median(rates);
    std::vector<double> rss;  // each rig's peak
    for (int k = 0; k < kRigs; ++k) {
        rss.push_back(std::max(lows[k].rss_mb, highs[k].rss_mb));
    }
    const std::vector<double> setup_s = values_of(setups, &SetupTimes::total_s);
    res.set("throughput_mops", capacity / 1000, "Mops/s",
            "= capacity_kops / 1000");
    // The gated sojourn is taken at low. At high, queueing amplifies every
    // host slowdown: over ten runs its p50 spread 0.12, the low p50 0.05.
    res.set("op_mean_ns", low.windowed.mean, "ns",
            "mean sojourn at low; " + window_note(low, low.whole.mean));
    res.set("op_p90_ns", low.windowed.p90, "ns",
            "sojourn p90 at low; " + window_note(low, low.whole.p90));
    res.set("setup_s", median(setup_s), "s", reps_note(setup_s));
    // Later rigs inherit allocator leftovers from earlier ones (up to
    // +2 MiB), so the lowest rig's peak is the least inflated.
    res.set("peak_rss_mb", *std::min_element(rss.begin(), rss.end()), "MiB",
            reps_note(rss, "lowest of the set-ups' peaks over low and high:"));
    res.set("sojourn_p50_us.low", low.windowed.p50 / 1e3, "us",
            window_note(low, low.whole.p50));
    res.set("sojourn_p99_us.low", low.windowed.p99 / 1e3, "us",
            window_note(low, low.whole.p99));
    res.set("sojourn_p50_us.high", high.windowed.p50 / 1e3, "us",
            window_note(high, high.whole.p50));
    res.set("sojourn_p99_us.high", high.windowed.p99 / 1e3, "us",
            window_note(high, high.whole.p99));
    res.set("capacity_kops", capacity, "Kops/s",
            "completion rate, " + std::to_string(kSaturationWindow) +
                " requests in flight per connection; " + reps_note(rates) +
                " (bursts of " + std::to_string(kConns) + " x " +
                std::to_string(kBurstRequests) + ")");
    res.set("failed_frac", failed_frac(res), "fraction",
            "failed=" + std::to_string(res.failed) +
                " attempted=" + std::to_string(res.attempted));
    return res;
}

RunResult run_traced(const RunOptions& opts) {
    RunResult res;
    SpanBuffer trace(0, 1u << 20);
    const std::uint64_t run_id = trace.reserve_id();
    const std::uint64_t run_t0 = now_ns();
    std::vector<SetupTimes> setups;
    auto rig = set_up_checked(opts.seed, true, setups, res);
    if (!rig) return res;
    for (const Gen& g : rig->gens) res.cpus.push_back(g.cpu);
    trace.add("setup", run_t0, now_ns(), run_id);
    Phases phases(*rig, opts.seed);
    const PhaseResult warm = phases.open(kLowKops, kWarmupS, false);
    count_phase(warm, res);
    check_phase("warmup", warm, false, res);

    const double traced_requests =
        1000 * (kLowKops * 0.25 + kHighKops * 0.4) * opts.seconds;
    rig->stack->reserve(static_cast<std::size_t>(traced_requests * 1.25));
    const sec::reclaim::Stats rc0 = rig->domain.stats();
    const sec::StatsSnapshot cs0 = rig->stack->stats();
    const PhaseResult ref =
        fixed_phase(phases, "ref", kLowKops, 0.25 * opts.seconds, false, res);
    const std::uint64_t low_id = trace.reserve_id();
    const PhaseResult low = fixed_phase(phases, "low", kLowKops,
                                        0.25 * opts.seconds, true, res,
                                        &trace, low_id);
    trace.add("phase.low", low.start_ns, low.end_ns, run_id, 0, low_id);
    const std::uint64_t high_id = trace.reserve_id();
    const PhaseResult high = fixed_phase(phases, "high", kHighKops,
                                         0.4 * opts.seconds, true, res,
                                         &trace, high_id);
    trace.add("phase.high", high.start_ns, high.end_ns, run_id, 0, high_id);
    const sec::reclaim::Stats rc1 = rig->domain.stats();
    const sec::StatsSnapshot cs1 = rig->stack->stats();
    const sec::net::ServerStats ss = rig->server->stats();
    unsigned pinned = 0;
    for (const Gen& g : rig->gens) pinned += g.cpu >= 0 ? 1 : 0;
    const Teardown td = tear_down(*rig, res);
    const std::vector<TimedStack::Apply> applies = rig->stack->applies();
    if (rig->stack->dropped() != 0) {
        std::printf("  note: %llu container calls past the record buffer "
                    "were not timed\n",
                    static_cast<unsigned long long>(rig->stack->dropped()));
    }
    rig.reset();
    time_more_setups(opts.seed, true, setups, res);
    trace.add("run", run_t0, now_ns(), 0, 0, run_id);

    // Container calls the server made during the traced phases.
    LatencyHistogram apply[3];
    for (const TimedStack::Apply& a : applies) {
        apply[static_cast<int>(a.op)].record(a.end_ns - a.start_ns);
    }
    SpanBuffer server_spans(kConns + 1, 1u << 20);
    match_applies(applies, phases.kept(), server_spans);
    res.spans = trace.spans();
    res.spans.insert(res.spans.end(), server_spans.spans().begin(),
                     server_spans.spans().end());

    LatencyHistogram both;
    both.merge_from(apply[0]);
    both.merge_from(apply[1]);
    std::uint64_t empties = 0;
    for (const PhaseResult* p : {&ref, &low, &high}) {
        empties += p->failed - p->lost - p->bad;
    }
    set_op_metrics(res, apply);  // server-side calls; peeks are not served
    set_core_metrics(res, cs0, cs1, empties);
    set_reclaim_metrics(res, rc0, rc1, ref.sent + low.sent + high.sent,
                        td.drain_ms);
    set_exec_metrics(res, setups, td.join_ms, pinned);

    res.set("net.rtt_p50_us", high.rtt.p50 / 1e3, "us");
    res.set("net.rtt_p99_us", high.rtt.p99 / 1e3, "us");
    res.set("net.rtt.n", static_cast<double>(high.rtt.n), "count");
    const Percentiles apply_ns = percentiles(both);
    res.set("net.apply_ns.p50", apply_ns.p50, "ns");
    res.set("net.apply_ns.p99", apply_ns.p99, "ns");
    res.set("net.apply_ns.n", static_cast<double>(apply_ns.n), "count");
    res.set("net.reqs_per_batch.low", low.reqs_per_batch, "reqs/batch");
    res.set("net.reqs_per_batch.high", high.reqs_per_batch, "reqs/batch");
    res.set("net.max_batch", static_cast<double>(ss.max_batch), "count");
    const std::uint64_t frames = low.codec_frames + high.codec_frames;
    res.set("net.codec_ns",
            frames ? static_cast<double>(low.codec_ns + high.codec_ns) /
                         static_cast<double>(frames)
                   : 0,
            "ns");
    res.set("gen.lag_p50_us", high.lag.p50 / 1e3, "us");
    res.set("gen.lag_p99_us", high.lag.p99 / 1e3, "us");
    res.set("gen.lag_max_us", high.lag.max / 1e3, "us",
            "upper bound of the largest lag's histogram bucket");
    res.set("gen.lag.n", static_cast<double>(high.lag.n), "count");
    res.set("trace.overhead_pct",
            ref.sojourn_w.p50 > 0
                ? (low.sojourn_w.p50 / ref.sojourn_w.p50 - 1) * 100
                : 0,
            "%");

    std::printf("workload served_tcp (traced): reference low sojourn p50 "
                "%.2f us untraced, %.2f us traced\n",
                ref.sojourn_w.p50 / 1e3, low.sojourn_w.p50 / 1e3);
    print_phase("low", low);
    print_phase("high", high);
    return res;
}

}  // namespace

RunResult run_served_tcp(const RunOptions& opts) {
    return opts.trace ? run_traced(opts) : run_untraced(opts);
}

}  // namespace perfbench
