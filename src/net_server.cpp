// net_server.cpp — SecServer implementation (net/server.hpp).
//
// Single-threaded event loop over one epoll descriptor, level-triggered on
// purpose: the loop drains a ready socket to EAGAIN inside the batch anyway,
// and level-triggering keeps the "re-notify until drained" invariant without
// edge-trigger resubscription subtleties. Batch discipline: every
// epoll_wait() batch is fully drained — accept to EAGAIN, read each ready
// connection to EAGAIN (or to its input bound), decode every complete frame,
// apply it to the stack, buffer the response — then each touched connection
// is flushed. The per-op AnyStack virtuals are fine here: a request already
// paid a syscall and a frame decode, so one virtual call is noise, and the
// interesting batching (kernel crossings amortized over the readiness batch)
// lives a layer below.
//
// Backpressure: a connection whose unflushed output reaches kOutHighWater
// stops decoding and drops EPOLLIN from its interest until flushing drains
// the output below kOutLowWater. Its requests then queue in the kernel, and
// TCP flow control slows a peer that sends faster than it reads; no peer
// that follows the protocol is dropped, and buffers stay bounded.
//
// Half-close: a peer may shut down its sending side after its last request.
// EOF stops the reads, not the connection: what was read is still decoded,
// applied and flushed, and the connection closes once its output is empty.
// A partial frame left at EOF can never complete; it goes with the
// connection.
#include "net/server.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sec::net {
namespace {

constexpr int kEventCap = 128;
// stop() wakes the loop through the eventfd; the timeout only bounds how
// long the loop can miss the stop flag if that wake is lost.
constexpr int kWaitTimeoutMs = 200;
constexpr std::size_t kReadChunk = 16 * 1024;
// Reads stop once this much undecoded input is buffered; level-triggered
// EPOLLIN brings the rest on a later batch.
constexpr std::size_t kMaxInBuffer = 256 * 1024;
// Unflushed output that pauses a connection, and the level it must drain
// below to resume. A request/response peer with a few requests in flight
// never comes near either.
constexpr std::size_t kOutHighWater = 1024 * 1024;
constexpr std::size_t kOutLowWater = 256 * 1024;

bool set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SecServer::SecServer(AnyStack stack, ServerConfig cfg)
    : stack_(std::move(stack)), cfg_(std::move(cfg)) {}

SecServer::~SecServer() { stop(); }

ServerStats SecServer::stats() const {
    ServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.pops = pops_.load(std::memory_order_relaxed);
    s.empties = empties_.load(std::memory_order_relaxed);
    s.stats = stats_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.max_batch = max_batch_.load(std::memory_order_relaxed);
    return s;
}

bool SecServer::start(std::string* err) {
    if (running_.load(std::memory_order_acquire)) return true;
    auto fail = [&](const std::string& what) {
        if (err != nullptr) *err = what;
        if (listen_fd_ >= 0) ::close(listen_fd_);
        if (wake_fd_ >= 0) ::close(wake_fd_);
        if (epoll_fd_ >= 0) ::close(epoll_fd_);
        listen_fd_ = wake_fd_ = epoll_fd_ = -1;
        return false;
    };

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        return fail(std::string("epoll_create1: ") + std::strerror(errno));
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        return fail(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        return fail("bad listen address '" + cfg_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        return fail(std::string("bind: ") + std::strerror(errno));
    }
    if (::listen(listen_fd_, 128) != 0) {
        return fail(std::string("listen: ") + std::strerror(errno));
    }
    if (!set_nonblocking(listen_fd_)) {
        return fail(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &blen) != 0) {
        return fail(std::string("getsockname: ") + std::strerror(errno));
    }
    bound_port_ = ntohs(bound.sin_port);

    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
        return fail(std::string("eventfd: ") + std::strerror(errno));
    }

    if (!watch(EPOLL_CTL_ADD, listen_fd_, true, false) ||
        !watch(EPOLL_CTL_ADD, wake_fd_, true, false)) {
        return fail(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
    }

    stop_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    exec::PoolOptions popts;
    popts.pin = cfg_.pin;
    popts.coordinator_in_barrier = false;
    pool_ = std::make_unique<exec::WorkerPool>(1, popts);
    pool_->start([this](exec::WorkerContext&) { loop(); });
    return true;
}

void SecServer::stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    if (pool_) {
        pool_->join();
        pool_.reset();
    }
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    ::close(listen_fd_);
    ::close(wake_fd_);
    ::close(epoll_fd_);
    listen_fd_ = wake_fd_ = epoll_fd_ = -1;
}

void SecServer::loop() {
    epoll_event events[kEventCap];
    while (!stop_.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(epoll_fd_, events, kEventCap,
                                   kWaitTimeoutMs);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;  // non-retryable epoll failure
        }
        std::uint64_t batch_requests = 0;
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const std::uint32_t ready = events[i].events;
            if (fd == listen_fd_) {
                accept_ready();
                continue;
            }
            if (fd == wake_fd_) {
                std::uint64_t drain = 0;
                [[maybe_unused]] const auto r =
                    ::read(wake_fd_, &drain, sizeof(drain));
                continue;
            }
            const auto it = conns_.find(fd);
            if (it == conns_.end()) continue;  // closed earlier this batch
            Conn& conn = it->second;
            // Error or hangup closes the connection without a read.
            bool alive = (ready & (EPOLLERR | EPOLLHUP)) == 0;
            if (alive && (ready & EPOLLIN) != 0) alive = conn_readable(fd, conn);
            if (alive) alive = pump(fd, conn, batch_requests);
            if (!alive) close_conn(fd);
        }
        if (batch_requests > 0) {
            batches_.fetch_add(1, std::memory_order_relaxed);
            requests_.fetch_add(batch_requests, std::memory_order_relaxed);
            if (batch_requests >
                max_batch_.load(std::memory_order_relaxed)) {
                max_batch_.store(batch_requests, std::memory_order_relaxed);
            }
        }
    }
}

void SecServer::accept_ready() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN (drained) or a transient accept error
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (!watch(EPOLL_CTL_ADD, fd, true, false)) {
            ::close(fd);
            continue;
        }
        conns_.emplace(fd, Conn{});
        accepted_.fetch_add(1, std::memory_order_relaxed);
    }
}

bool SecServer::conn_readable(int fd, Conn& conn) {
    // Drain the socket to EAGAIN — level-triggered epoll would re-notify
    // anyway, but draining keeps the whole readiness batch's requests inside
    // this aggregation window — unless the input bound stops the read first.
    while (conn.in.size() < kMaxInBuffer) {
        const std::size_t old = conn.in.size();
        conn.in.resize(old + kReadChunk);
        const ssize_t n = ::read(fd, conn.in.data() + old, kReadChunk);
        if (n > 0) {
            conn.in.resize(old + static_cast<std::size_t>(n));
            continue;
        }
        conn.in.resize(old);
        if (n == 0) {
            conn.eof = true;
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
    }
    return true;
}

bool SecServer::pump(int fd, Conn& conn, std::uint64_t& batch_requests) {
    for (;;) {
        bool full = false;
        if (!conn.paused && !apply_frames(conn, batch_requests, full)) {
            return false;
        }
        if (!flush(fd, conn)) return false;
        const std::size_t unflushed = conn.out.size() - conn.out_off;
        if (conn.paused) {
            if (unflushed >= kOutLowWater) break;
            conn.paused = false;  // drained: decode what the pause left
        } else if (unflushed >= kOutHighWater) {
            conn.paused = true;  // the peer reads slower than it sends
            break;
        } else if (!full) {
            break;
        }
    }
    const bool want_write = conn.out.size() > conn.out_off;
    if (conn.eof && !want_write) return false;  // every reply flushed
    // Read interest unless paused or at EOF (level-triggered EPOLLIN fires
    // on every wait at EOF), write interest while output waits. A paused or
    // half-closed connection has output waiting, so it stays watched.
    const bool want_read = !conn.paused && !conn.eof;
    if (want_read == conn.want_read && want_write == conn.want_write) {
        return true;
    }
    conn.want_read = want_read;
    conn.want_write = want_write;
    // Without write interest buffered replies would only ever flush
    // piggybacked on a read event; if the kernel refuses the change, drop
    // the connection instead.
    return watch(EPOLL_CTL_MOD, fd, want_read, want_write);
}

bool SecServer::apply_frames(Conn& conn, std::uint64_t& batch_requests,
                             bool& full) {
    std::size_t off = 0;
    while (off < conn.in.size()) {
        if (conn.out.size() - conn.out_off >= kOutHighWater) {
            full = true;
            break;
        }
        Message req;
        const DecodeResult r =
            decode(conn.in.data() + off, conn.in.size() - off, req);
        if (r.status == DecodeStatus::kNeedMore) break;
        if (r.status == DecodeStatus::kError || !apply(req, conn)) {
            return false;
        }
        off += r.consumed;
        ++batch_requests;
    }
    if (off > 0) conn.in.erase(conn.in.begin(), conn.in.begin() + off);
    return true;
}

bool SecServer::apply(const Message& req, Conn& conn) {
    Message resp;
    resp.tag = req.tag;
    switch (req.type) {
        case MsgType::kPushReq: {
            resp.type = MsgType::kPushResp;
            resp.ok = stack_.push(req.value);
            pushes_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        case MsgType::kPopReq: {
            resp.type = MsgType::kPopResp;
            const auto v = stack_.pop();
            resp.ok = v.has_value();
            resp.value = v.value_or(0);
            if (resp.ok) {
                pops_.fetch_add(1, std::memory_order_relaxed);
            } else {
                empties_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        }
        case MsgType::kStatsReq: {
            resp.type = MsgType::kStatsResp;
            stats_.fetch_add(1, std::memory_order_relaxed);
            resp.stats.pushes = pushes_.load(std::memory_order_relaxed);
            resp.stats.pops = pops_.load(std::memory_order_relaxed);
            resp.stats.empties = empties_.load(std::memory_order_relaxed);
            resp.stats.batches = batches_.load(std::memory_order_relaxed);
            resp.stats.shape =
                static_cast<std::uint8_t>(stack_.shape());
            break;
        }
        default:
            // A well-formed frame of a response type: a peer that sends one
            // does not speak the protocol.
            return false;
    }
    encode(resp, conn.out);
    return true;
}

bool SecServer::flush(int fd, Conn& conn) {
    while (conn.out_off < conn.out.size()) {
        // MSG_NOSIGNAL: a peer that reset its connection must surface as
        // EPIPE on this fd (normal close path), not SIGPIPE for the process.
        const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Keep the unsent tail for writability. Drop the sent head once
            // it outweighs the tail, so a peer that never lets the output
            // drain completely cannot grow the buffer without bound.
            if (conn.out_off >= kOutLowWater &&
                conn.out_off >= conn.out.size() - conn.out_off) {
                conn.out.erase(conn.out.begin(),
                               conn.out.begin() +
                                   static_cast<std::ptrdiff_t>(conn.out_off));
                conn.out_off = 0;
            }
            return true;
        }
        return false;  // EPIPE/ECONNRESET and friends: close the connection
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
}

void SecServer::close_conn(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
}

bool SecServer::watch(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
}

}  // namespace sec::net
