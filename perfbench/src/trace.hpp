// trace.hpp — spans the traced run records around each call the benchmark
// makes into a layer of the library.
//
// A span is {name, start, end, id, parent, request id}. Spans stay in
// per-thread buffers in memory and are written out once, at exit, as a
// Chrome trace-event file (load it in Perfetto or chrome://tracing).
// Per-op spans are far too many to keep at 10 Mops/s, so the hot loops fold
// every op into per-thread histograms and keep only a 1-in-N sample whole.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (self_times below).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";    // static string, e.g. "core.push", "net.rtt"
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;      // unique within the trace, never 0
    std::uint64_t parent = 0;  // id of the span that caused it, 0 = root
    std::uint64_t req = 0;     // request id shared by a served request's spans
    std::uint32_t thread = 0;  // recording thread (trace-event "tid")
};

// One thread's span buffer. Ids are (thread + 1) << 40 | counter, so
// buffers never collide and need no synchronization. Past `cap` spans are
// counted as dropped instead of stored.
class SpanBuffer {
public:
    SpanBuffer(std::uint32_t thread = 0, std::size_t cap = 1u << 16);

    // An id for a span whose end is not known yet (its children need it).
    std::uint64_t reserve_id() noexcept {
        return (static_cast<std::uint64_t>(thread_) + 1) << 40 | ++next_;
    }
    // Record a span; returns its id (reserved, or a fresh one when id == 0).
    std::uint64_t add(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::uint64_t parent = 0,
                      std::uint64_t req = 0, std::uint64_t id = 0);

    const std::vector<Span>& spans() const noexcept { return spans_; }
    std::uint64_t dropped() const noexcept { return dropped_; }

private:
    std::uint32_t thread_;
    std::size_t cap_;
    std::uint64_t next_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Span> spans_;
};

// Self time of each span (index-aligned with `spans`): duration minus the
// union of its children's intervals, each clipped to the parent's.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

// Per-name totals over a trace.
struct SpanTotals {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
};
std::vector<SpanTotals> fold_by_name(const std::vector<Span>& spans);

// Write `spans` as Chrome trace-event JSON ("X" events, µs since the first
// span). `meta` is a JSON object embedded as "otherData". False on I/O
// failure.
bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& meta_json);

// Print fold_by_name as a table (the traced run's self-time breakdown).
void print_span_table(const std::vector<Span>& spans);

}  // namespace perfbench
