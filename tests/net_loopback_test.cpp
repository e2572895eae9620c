// net_loopback_test — SecServer + the loopback client driver over real
// sockets on an ephemeral port: stack semantics survive the wire (LIFO
// order, empty-pop signalling, stats), misbehaving peers cost the server
// nothing, the open-loop driver loses zero replies and bills a server stall
// to the requests behind it, and its arrival schedules have the right rate
// and shape. Runs in the TSan and ASan CI jobs, so everything crossing
// threads here is atomic or join-ordered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>  // std::this_thread::sleep_for
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "exec/worker_pool.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "sec.hpp"
#include "workload/arrival.hpp"
#include "workload/registry.hpp"
#include "workload/runner.hpp"

namespace sec::net {
namespace {

AnyStack make_stack(const char* algo = "SEC") {
    const bench::AlgoSpec* spec =
        bench::AlgorithmRegistry::instance().find(algo);
    EXPECT_NE(spec, nullptr);
    bench::StackParams params;
    params.threads = 2;
    return spec->make(params);
}

// A deliberately dumb synchronous client: one blocking socket, one
// request/response at a time. The test oracle must not share machinery
// with the driver under test.
class SyncClient {
public:
    // rcvbuf > 0 shrinks the socket's receive buffer (and so the window the
    // server may fill) before the connection is made.
    bool connect_to(std::uint16_t port, int rcvbuf = 0) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) return false;
        if (rcvbuf > 0) {
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
        }
        // A server that never answers, or never reads, fails the test
        // instead of hanging it.
        const timeval timeout{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0;
    }

    ~SyncClient() {
        if (fd_ >= 0) ::close(fd_);
    }

    // Send one request (optionally byte-by-byte to exercise the server's
    // torn-read path) and block for its response.
    bool roundtrip(const Message& req, Message& resp, bool torn = false) {
        std::vector<std::uint8_t> wire;
        encode(req, wire);
        if (torn) {
            for (const std::uint8_t byte : wire) {
                if (::write(fd_, &byte, 1) != 1) return false;
            }
        } else if (!send_all(wire)) {
            return false;
        }
        return receive(resp);
    }

    // MSG_NOSIGNAL: a server that drops the connection fails the test
    // instead of killing it with SIGPIPE.
    bool send_all(const std::vector<std::uint8_t>& wire) {
        std::size_t off = 0;
        while (off < wire.size()) {
            const ssize_t n = ::send(fd_, wire.data() + off,
                                     wire.size() - off, MSG_NOSIGNAL);
            if (n <= 0) return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    // Hold writes back until half_close() sends them with the FIN in one
    // segment, so the server reads the last request and EOF together.
    bool cork() {
        const int one = 1;
        return ::setsockopt(fd_, IPPROTO_TCP, TCP_CORK, &one, sizeof(one)) ==
               0;
    }
    bool half_close() { return ::shutdown(fd_, SHUT_WR) == 0; }

    // Close with SO_LINGER {1, 0}: the kernel drops whatever is unread and
    // sends RST instead of FIN.
    bool reset() {
        const linger abort{1, 0};
        const bool ok = ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort,
                                     sizeof(abort)) == 0;
        ::close(fd_);
        fd_ = -1;
        return ok;
    }

    // True when every reply has been taken and the server closed its side.
    bool at_eof() {
        std::uint8_t byte = 0;
        return buf_.empty() && ::read(fd_, &byte, 1) == 0;
    }

    // Block for the next response frame.
    bool receive(Message& resp) {
        for (;;) {
            Message decoded;
            const DecodeResult r = decode(buf_.data(), buf_.size(), decoded);
            if (r.status == DecodeStatus::kError) return false;
            if (r.status == DecodeStatus::kOk) {
                buf_.erase(buf_.begin(), buf_.begin() + r.consumed);
                resp = decoded;
                return true;
            }
            std::uint8_t chunk[512];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n <= 0) return false;
            buf_.insert(buf_.end(), chunk, chunk + n);
        }
    }

private:
    int fd_ = -1;
    std::vector<std::uint8_t> buf_;
};

TEST(NetLoopback, ServesLifoSemanticsOverTheWire) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.port(), 0);

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));

    Message req, resp;
    for (std::uint64_t v : {11u, 22u, 33u}) {
        req = Message{};
        req.type = MsgType::kPushReq;
        req.tag = 100 + v;
        req.value = v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPushResp);
        EXPECT_EQ(resp.tag, 100 + v);
        EXPECT_TRUE(resp.ok);
    }
    // LIFO: pops return 33, 22, 11, then EMPTY with ok=false.
    for (std::uint64_t v : {33u, 22u, 11u}) {
        req = Message{};
        req.type = MsgType::kPopReq;
        req.tag = 200 + v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPopResp);
        EXPECT_EQ(resp.tag, 200 + v);
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.value, v);
    }
    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 999;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kPopResp);
    EXPECT_FALSE(resp.ok);

    req = Message{};
    req.type = MsgType::kStatsReq;
    req.tag = 1;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kStatsResp);
    EXPECT_EQ(resp.stats.pushes, 3u);
    EXPECT_EQ(resp.stats.pops, 3u);
    EXPECT_EQ(resp.stats.empties, 1u);
    EXPECT_GE(resp.stats.batches, 1u);
    EXPECT_EQ(resp.stats.shape,
              static_cast<std::uint8_t>(ContainerShape::lifo));

    server.stop();
}

// The same wire protocol over a SecQueue-backed server: PUSH/POP map onto
// enqueue/dequeue 1:1, pops drain in arrival order, and STATS reports the
// fifo shape byte so a remote client can tell which semantics it is
// talking to.
TEST(NetLoopback, ServesFifoSemanticsOverTheWire) {
    SecServer server(make_stack("SEC_Q"), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.port(), 0);

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));

    Message req, resp;
    for (std::uint64_t v : {11u, 22u, 33u}) {
        req = Message{};
        req.type = MsgType::kPushReq;
        req.tag = 100 + v;
        req.value = v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPushResp);
        EXPECT_EQ(resp.tag, 100 + v);
        EXPECT_TRUE(resp.ok);
    }
    // FIFO: pops return 11, 22, 33 — arrival order — then EMPTY.
    for (std::uint64_t v : {11u, 22u, 33u}) {
        req = Message{};
        req.type = MsgType::kPopReq;
        req.tag = 200 + v;
        ASSERT_TRUE(client.roundtrip(req, resp));
        EXPECT_EQ(resp.type, MsgType::kPopResp);
        EXPECT_EQ(resp.tag, 200 + v);
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.value, v);
    }
    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 999;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kPopResp);
    EXPECT_FALSE(resp.ok);

    req = Message{};
    req.type = MsgType::kStatsReq;
    req.tag = 1;
    ASSERT_TRUE(client.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kStatsResp);
    EXPECT_EQ(resp.stats.pushes, 3u);
    EXPECT_EQ(resp.stats.pops, 3u);
    EXPECT_EQ(resp.stats.empties, 1u);
    EXPECT_EQ(resp.stats.shape,
              static_cast<std::uint8_t>(ContainerShape::fifo));

    server.stop();
}

TEST(NetLoopback, ReassemblesTornFramesByteByByte) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));

    Message req, resp;
    req.type = MsgType::kPushReq;
    req.tag = 1;
    req.value = 77;
    ASSERT_TRUE(client.roundtrip(req, resp, /*torn=*/true));
    EXPECT_TRUE(resp.ok);

    req = Message{};
    req.type = MsgType::kPopReq;
    req.tag = 2;
    ASSERT_TRUE(client.roundtrip(req, resp, /*torn=*/true));
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.value, 77u);

    server.stop();
}

TEST(NetLoopback, DropsProtocolViolatorsWithoutDyingItself) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // A garbage-spewing connection must be dropped, and so must one that
    // sends a well-formed frame of a response type...
    SyncClient bad;
    ASSERT_TRUE(bad.connect_to(server.port()));
    Message resp;
    Message garbage;
    garbage.type = static_cast<MsgType>(0);  // encodes a zero-length frame
    EXPECT_FALSE(bad.roundtrip(garbage, resp));
    SyncClient backwards;
    ASSERT_TRUE(backwards.connect_to(server.port()));
    Message reply;
    reply.type = MsgType::kPushResp;
    reply.ok = true;
    EXPECT_FALSE(backwards.roundtrip(reply, resp));

    // ...while a well-behaved one on the same server keeps working.
    SyncClient good;
    ASSERT_TRUE(good.connect_to(server.port()));
    Message req;
    req.type = MsgType::kStatsReq;
    req.tag = 3;
    ASSERT_TRUE(good.roundtrip(req, resp));
    EXPECT_EQ(resp.type, MsgType::kStatsResp);

    // Only the STATS counts as a request.
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests,
              stats.pushes + stats.pops + stats.empties + stats.stats);
    EXPECT_EQ(stats.stats, 1u);
}

// Replies the kernel will not take yet stay buffered, and write interest
// flushes them once the peer reads: a client that pipelines ~4 MB of
// replies before reading any still gets every one, in order.
TEST(NetLoopback, FlushesBufferedRepliesOnWritability) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // A small receive window keeps the replies in the server's socket.
    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port(), /*rcvbuf=*/4096));

    // Pops of an empty stack: 13-byte requests, 22-byte replies. The
    // replies (~4.18 MB) overflow a loopback socket's send buffer (4 MiB of
    // memory holds ~3.5 MB of payload), so send() hits EAGAIN and the rest
    // waits for EPOLLOUT.
    constexpr std::uint64_t kReplyBytes = 22;
    constexpr std::uint64_t kRequests =
        (std::uint64_t{4} << 20) / kReplyBytes - 500;
    std::vector<std::uint8_t> wire;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Message req;
        req.type = MsgType::kPopReq;
        req.tag = i;
        encode(req, wire);
    }
    ASSERT_TRUE(client.send_all(wire));
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Message resp;
        ASSERT_TRUE(client.receive(resp)) << "reply " << i;
        ASSERT_EQ(resp.tag, i);
        ASSERT_FALSE(resp.ok);
    }
    EXPECT_EQ(server.stats().empties, kRequests);

    server.stop();
}

// A peer that half-closes after its last request is well-behaved TCP: the
// server answers every request it read, in order, and only then closes.
TEST(NetLoopback, HalfClosedPeerGetsEveryReply) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port()));
    ASSERT_TRUE(client.cork());
    constexpr std::uint64_t kRequests = 1000;
    std::vector<std::uint8_t> wire;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Message req;
        req.type = MsgType::kPopReq;
        req.tag = i;
        encode(req, wire);
    }
    ASSERT_TRUE(client.send_all(wire));
    ASSERT_TRUE(client.half_close());
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Message resp;
        ASSERT_TRUE(client.receive(resp)) << "reply " << i;
        ASSERT_EQ(resp.tag, i);
        ASSERT_FALSE(resp.ok);
    }
    EXPECT_TRUE(client.at_eof());

    // A partial frame before the FIN can never complete: the request before
    // it is still answered, then the connection closes.
    SyncClient torn;
    ASSERT_TRUE(torn.connect_to(server.port()));
    ASSERT_TRUE(torn.cork());
    wire.clear();
    Message req;
    req.type = MsgType::kPopReq;
    req.tag = kRequests;
    encode(req, wire);
    encode(req, wire);
    wire.resize(wire.size() - 1);
    ASSERT_TRUE(torn.send_all(wire));
    ASSERT_TRUE(torn.half_close());
    Message resp;
    ASSERT_TRUE(torn.receive(resp));
    EXPECT_EQ(resp.tag, kRequests);
    EXPECT_TRUE(torn.at_eof());

    server.stop();
    EXPECT_EQ(server.stats().empties, kRequests + 1);
}

// Backpressure: a peer that sends far faster than it reads is slowed by TCP
// flow control, never dropped. One worker pipelines 400,000 pops (5.2 MB of
// requests, 8.8 MB of replies — twice what the server may hold unflushed)
// while another reads the replies slowly through a 4 KiB receive buffer;
// every reply must arrive, in order.
TEST(NetLoopback, SlowReaderIsPausedNotDropped) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    SyncClient client;
    ASSERT_TRUE(client.connect_to(server.port(), /*rcvbuf=*/4096));

    constexpr std::uint64_t kRequests = 400000;
    std::vector<std::uint8_t> wire;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Message req;
        req.type = MsgType::kPopReq;
        req.tag = i;
        encode(req, wire);
    }
    bool sent = false;
    std::uint64_t in_order = 0;  // replies received with the expected tag
    exec::WorkerPool::run(2, [&](exec::WorkerContext& wc) {
        if (wc.index == 0) {
            sent = client.send_all(wire);
            return;
        }
        // Let the requests pile up first, then read in small steps with a
        // pause every 4,096 replies.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (std::uint64_t i = 0; i < kRequests; ++i) {
            Message resp;
            if (!client.receive(resp) || resp.tag != i || resp.ok) return;
            ++in_order;
            if (i % 4096 == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    });
    EXPECT_TRUE(sent) << "the server stopped reading for good";
    EXPECT_EQ(in_order, kRequests) << "reply " << in_order
                                   << " missing or out of order";
    EXPECT_EQ(server.stats().empties, kRequests);

    server.stop();
}

// A peer that resets while the server still holds its replies costs the
// server that connection only: 20,000 pops pipelined through a 4 KiB receive
// buffer that reads nothing, then RST. The server's next send or wait on it
// fails, it closes the connection, and a second peer is served as before.
TEST(NetLoopback, PeerResetMidReplyLeavesTheServerServing) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    constexpr std::uint64_t kRequests = 20000;
    {
        SyncClient rude;
        ASSERT_TRUE(rude.connect_to(server.port(), /*rcvbuf=*/4096));
        std::vector<std::uint8_t> wire;
        for (std::uint64_t i = 0; i < kRequests; ++i) {
            Message req;
            req.type = MsgType::kPopReq;
            req.tag = i;
            encode(req, wire);
        }
        ASSERT_TRUE(rude.send_all(wire));
        // Reset only once every pop is applied, so ~440 KB of replies sit
        // in the server's buffers when the RST lands.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (server.stats().empties < kRequests &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ASSERT_EQ(server.stats().empties, kRequests);
        ASSERT_TRUE(rude.reset());
    }

    SyncClient polite;
    ASSERT_TRUE(polite.connect_to(server.port()));
    for (std::uint64_t i = 0; i < 100; ++i) {
        Message req, resp;
        req.type = MsgType::kPushReq;
        req.tag = 2 * i;
        req.value = i + 1;
        ASSERT_TRUE(polite.roundtrip(req, resp)) << "push " << i;
        EXPECT_EQ(resp.tag, 2 * i);
        EXPECT_TRUE(resp.ok);
        req = Message{};
        req.type = MsgType::kPopReq;
        req.tag = 2 * i + 1;
        ASSERT_TRUE(polite.roundtrip(req, resp)) << "pop " << i;
        EXPECT_EQ(resp.tag, 2 * i + 1);
        EXPECT_TRUE(resp.ok);
        EXPECT_EQ(resp.value, i + 1);
    }

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests,
              stats.pushes + stats.pops + stats.empties + stats.stats);
    EXPECT_EQ(stats.pushes, 100u);
    EXPECT_EQ(stats.pops, 100u);
    EXPECT_EQ(stats.empties, kRequests);
}

// The open-loop driver against a live server: every scheduled request must
// come back exactly once. Tiny load — this runs under TSan in CI.
TEST(NetLoopback, LoopbackDriverLosesZeroReplies) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    LoopbackClientConfig cfg;
    cfg.port = server.port();
    cfg.connections = 2;
    cfg.load_kops = 2.0;
    cfg.duration = std::chrono::milliseconds(150);
    cfg.seed = 42;

    // The client paces at 1 ns timer slack and hands the caller's back.
    const int slack = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    const LoopbackClientResult res = run_loopback_client(cfg);
    EXPECT_EQ(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), slack);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(res.sent, 0u);
    EXPECT_EQ(res.replies, res.sent);
    EXPECT_EQ(res.lost, 0u);
    EXPECT_EQ(res.sojourn.total(), res.replies);
    EXPECT_EQ(res.rtt.total(), res.replies);
    EXPECT_EQ(res.pop_hits + res.pop_empties + res.pushes, res.sent);
    EXPECT_GT(res.achieved_kops, 0.0);

    // The server agrees it answered everything the driver sent. Stats are
    // read after stop() (which joins the loop thread): batch accounting
    // lands at the END of each batch, after its responses already flushed,
    // so a still-running loop could trail the client by one batch.
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, res.sent);
    EXPECT_EQ(stats.pushes, res.pushes);
    EXPECT_EQ(stats.pops + stats.empties, res.pop_hits + res.pop_empties);
}

// SecStack whose 50th pop spins for 100 ms: the one event loop serves
// nothing meanwhile. Only that loop thread calls pop.
class StallingStack {
public:
    using value_type = std::uint64_t;
    static constexpr ContainerShape kShape = ContainerShape::lifo;

    bool push(value_type v) { return inner_->push(v); }
    std::optional<value_type> pop() {
        if (++pops_ == 50) sec::detail::spin_for_ns(100'000'000);
        return inner_->pop();
    }
    std::optional<value_type> peek() { return inner_->peek(); }

private:
    std::unique_ptr<SecStack<value_type>> inner_ =
        sec::make_stack<SecStack<value_type>>(2);
    std::uint64_t pops_ = 0;
};

// The driver charges each reply against its *scheduled* arrival, so a
// server stall is billed to every request that came due behind it, not
// just to the one in flight (no coordinated omission). About 200 of ~600
// requests come due during the stall, and well over 1 % of all requests
// wait 30 ms or more. Only this lower bound is pinned: the client keeps
// sending through the stall, so RTT grows with sojourn and is no flat
// contrast.
TEST(NetLoopback, ServerStallIsBilledToTheRequestsBehindIt) {
    SecServer server(bench::erase_stack(std::make_unique<StallingStack>()),
                     {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    LoopbackClientConfig cfg;
    cfg.port = server.port();
    cfg.connections = 2;
    cfg.load_kops = 2.0;
    cfg.duration = std::chrono::milliseconds(300);
    cfg.seed = 3;

    const LoopbackClientResult res = run_loopback_client(cfg);
    server.stop();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.lost, 0u);
    EXPECT_GE(res.sojourn.quantile_ns(0.99), 30'000'000u);
}

// Determinism: the same (seed, config) generates the same schedules, so
// two drivers offer identical request streams (sent counts match).
TEST(NetLoopback, DriverSchedulesAreDeterministicInTheSeed) {
    SecServer server(make_stack(), {});
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    LoopbackClientConfig cfg;
    cfg.port = server.port();
    cfg.connections = 2;
    cfg.load_kops = 2.0;
    cfg.duration = std::chrono::milliseconds(100);
    cfg.seed = 7;

    const LoopbackClientResult a = run_loopback_client(cfg);
    const LoopbackClientResult b = run_loopback_client(cfg);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.pushes, b.pushes);

    server.stop();
}

TEST(ArrivalSchedule, ParseAndNameRoundTrip) {
    ASSERT_TRUE(bench::parse_arrival("poisson").has_value());
    ASSERT_TRUE(bench::parse_arrival("burst").has_value());
    EXPECT_FALSE(bench::parse_arrival("uniform").has_value());
    EXPECT_FALSE(bench::parse_arrival("").has_value());
    EXPECT_EQ(bench::arrival_name(*bench::parse_arrival("poisson")),
              "poisson");
    EXPECT_EQ(bench::arrival_name(*bench::parse_arrival("burst")), "burst");
}

TEST(ArrivalSchedule, PoissonIsDeterministicSortedAndRateAccurate) {
    const auto kind = bench::ArrivalKind::kPoisson;
    const auto horizon = std::chrono::milliseconds(200);
    const double rate = 100'000.0;  // ops/s -> ~20k arrivals
    const auto a = bench::make_arrival_schedule(kind, horizon, rate, 42);
    const auto b = bench::make_arrival_schedule(kind, horizon, rate, 42);
    EXPECT_EQ(a, b);
    const auto c = bench::make_arrival_schedule(kind, horizon, rate, 43);
    EXPECT_NE(a, c);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_LT(a.back(), 200'000'000u);  // inside the horizon
    // 20k expected arrivals: +-10% is ~14 sigma for a Poisson count.
    EXPECT_GT(a.size(), 18'000u);
    EXPECT_LT(a.size(), 22'000u);
}

TEST(ArrivalSchedule, BurstArrivalsStayInsideTheDutyWindow) {
    const double rate = 100'000.0;
    const auto s = bench::make_arrival_schedule(
        bench::ArrivalKind::kBurst, std::chrono::milliseconds(200), rate, 7);
    ASSERT_FALSE(s.empty());
    constexpr std::uint64_t kPeriodNs = 10'000'000;
    constexpr std::uint64_t kOnNs = 2'500'000;
    for (std::uint64_t t : s) {
        EXPECT_LT(t % kPeriodNs, kOnNs) << "arrival outside the burst at "
                                        << t;
    }
    // The mean rate is preserved despite the compression.
    EXPECT_GT(s.size(), 17'000u);
    EXPECT_LT(s.size(), 23'000u);
}

}  // namespace
}  // namespace sec::net
