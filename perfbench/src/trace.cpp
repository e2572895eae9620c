// trace.cpp — span buffers, self time and the trace writer (trace.hpp).
#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

SpanBuffer::SpanBuffer(std::uint32_t thread, std::size_t cap)
    : thread_(thread), cap_(cap) {}

std::uint64_t SpanBuffer::add(const char* name, std::uint64_t start_ns,
                              std::uint64_t end_ns, std::uint64_t parent,
                              std::uint64_t req, std::uint64_t id) {
    if (id == 0) id = reserve_id();
    if (spans_.size() >= cap_) {
        ++dropped_;
        return id;
    }
    spans_.push_back({name, start_ns, end_ns, id, parent, req, thread_});
    return id;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

    // Children's intervals, clipped to their parent, grouped by parent.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end()) continue;
        const Span& p = spans[it->second];
        const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
        const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
        if (lo < hi) kids[it->second].emplace_back(lo, hi);
    }

    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t dur = spans[i].end_ns > spans[i].start_ns
                                      ? spans[i].end_ns - spans[i].start_ns
                                      : 0;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t cur_lo = 0;
        std::uint64_t cur_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

std::vector<SpanTotals> fold_by_name(const std::vector<Span>& spans) {
    const std::vector<std::uint64_t> self = self_times(spans);
    std::map<std::string, SpanTotals> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals& t = by_name[spans[i].name];
        t.name = spans[i].name;
        ++t.count;
        t.total_ns += spans[i].end_ns - spans[i].start_ns;
        t.self_ns += self[i];
    }
    std::vector<SpanTotals> out;
    for (auto& [name, t] : by_name) out.push_back(t);
    return out;
}

bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& meta_json) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = UINT64_MAX;
    for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
                 meta_json.c_str());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                     ",\"parent\":%" PRIu64 ",\"req\":%" PRIu64 "}}%s\n",
                     s.name, s.thread,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                     s.parent, s.req, i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

void print_span_table(const std::vector<Span>& spans) {
    std::printf("  %-16s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
    for (const SpanTotals& t : fold_by_name(spans)) {
        std::printf("  %-16s %10" PRIu64 " %14.3f %14.3f\n", t.name.c_str(),
                    t.count, static_cast<double>(t.total_ns) / 1e6,
                    static_cast<double>(t.self_ns) / 1e6);
    }
}

}  // namespace perfbench
