// net/server.hpp — SecServer, the socket front-end that turns a
// registry-built stack into a servable system (DESIGN.md §11).
//
// One event-loop thread owns every socket, the stack handle and one
// level-triggered epoll descriptor. Each epoll_wait() batch is drained
// completely — every readable connection read to EAGAIN, every complete
// frame decoded and applied to the stack, every response appended to the
// connection's write buffer — before the next wait. A connection whose
// peer leaves too many replies unread is paused instead: it stops reading
// and decoding until its output drains (backpressure, net_server.cpp).
// The readiness batch therefore becomes the unit of work exactly the way
// an aggregator batch is in the paper: the kernel crossing is amortized
// over every request it surfaced, and responses flush as one writev-sized
// burst per connection per batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stack_concept.hpp"
#include "exec/worker_pool.hpp"
#include "net/protocol.hpp"

namespace sec::net {

struct ServerConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
    // Event-loop placement (`secserve --pin`): the loop thread runs as a
    // single-worker exec pool, so it takes the first cpu of the policy's
    // plan. kNone = unpinned, the historical behaviour.
    topo::PinPolicy pin = topo::PinPolicy::kNone;
};

// Event-loop-thread counters, readable from any thread while the server
// runs (relaxed atomics — monotonic counters, no ordering contract).
struct ServerStats {
    std::uint64_t accepted = 0;   // connections accepted over the lifetime
    // Frames decoded and applied; each is one of the next four, so after
    // stop() requests == pushes + pops + empties + stats.
    std::uint64_t requests = 0;
    std::uint64_t pushes = 0;     // kPushReq handled
    std::uint64_t pops = 0;       // kPopReq handled, value returned
    std::uint64_t empties = 0;    // kPopReq handled, stack empty
    std::uint64_t stats = 0;      // kStatsReq handled
    std::uint64_t batches = 0;    // epoll_wait() batches that carried work
    std::uint64_t max_batch = 0;  // most requests drained in one batch
};

class SecServer {
public:
    // Takes ownership of the stack; every request of every connection is
    // applied to it from the single event-loop thread.
    SecServer(AnyStack stack, ServerConfig cfg);
    ~SecServer();

    SecServer(const SecServer&) = delete;
    SecServer& operator=(const SecServer&) = delete;

    // Bind + listen + spawn the loop thread. False (with a one-line reason)
    // on bind failures or epoll setup failures.
    bool start(std::string* err);
    // Graceful shutdown: wake the loop, drain nothing further, close every
    // socket, join. Idempotent.
    void stop();

    // The bound port (resolves an ephemeral request); valid after start().
    std::uint16_t port() const noexcept { return bound_port_; }

    ServerStats stats() const;

private:
    struct Conn {
        std::vector<std::uint8_t> in;
        std::vector<std::uint8_t> out;
        std::size_t out_off = 0;     // bytes of `out` already written
        bool paused = false;         // backpressure: decoding stopped
        bool eof = false;            // the peer sends nothing more
        bool want_read = true;       // registered with read interest
        bool want_write = false;     // registered with write interest
    };

    void loop();
    void accept_ready();
    // Each returns false when the connection must be closed (error /
    // protocol violation / a half-closed peer fully answered).
    // Read the socket into `in`, up to its bound or to EOF.
    bool conn_readable(int fd, Conn& conn);
    // Apply buffered requests and flush their replies, pausing and resuming
    // the connection on its unflushed output; then register the interest
    // its state needs. After EOF it keeps only write interest, and closes
    // once every complete request read is answered and flushed.
    bool pump(int fd, Conn& conn, std::uint64_t& batch_requests);
    // Decode and apply whole frames from `in` until none is left or the
    // unflushed output reaches the high-water mark (`full`). False on a
    // frame that does not decode or is not a request.
    bool apply_frames(Conn& conn, std::uint64_t& batch_requests, bool& full);
    // Send unflushed output until done or the socket would block.
    bool flush(int fd, Conn& conn);
    // Apply one request and encode its reply; false for a response type.
    bool apply(const Message& req, Conn& conn);
    void close_conn(int fd);
    // epoll_ctl(op) for `fd` with the given interest. False when the kernel
    // refuses the change.
    bool watch(int op, int fd, bool want_read, bool want_write);

    AnyStack stack_;
    ServerConfig cfg_;
    int epoll_fd_ = -1;
    int listen_fd_ = -1;
    int wake_fd_ = -1;  // eventfd: stop() pokes the blocked epoll_wait()
    std::uint16_t bound_port_ = 0;
    std::unordered_map<int, Conn> conns_;
    // Single-worker pool instead of a bare std::thread: the loop thread is
    // tid-registered and pinnable like every other worker (prereq for the
    // loop-per-shard follow-on).
    std::unique_ptr<exec::WorkerPool> pool_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_{false};

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> pushes_{0};
    std::atomic<std::uint64_t> pops_{0};
    std::atomic<std::uint64_t> empties_{0};
    std::atomic<std::uint64_t> stats_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> max_batch_{0};
};

}  // namespace sec::net
