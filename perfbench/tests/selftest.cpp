// selftest.cpp — checks of the benchmark's own machinery: the output check
// catches lost and duplicated tags, percentiles carry their sample counts,
// arrival schedules repeat for a seed, and span self time is computed
// correctly. Runs every check and exits nonzero if any failed.
//
//   ctest --test-dir .bench_build/perfbench   (or run perfbench_selftest)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

using namespace perfbench;

// Two sources: the prefill (source 0, seqs 0..2) and one worker (source 1,
// seqs 0..3). Returns the ledger after every tag was pushed once.
Ledger pushed_ledger() {
    Ledger l(2);
    for (std::uint64_t s = 0; s < 3; ++s) l.pushed(make_tag(0, s));
    for (std::uint64_t s = 0; s < 4; ++s) l.pushed(make_tag(1, s));
    return l;
}
const std::vector<std::uint64_t> kSeqEnd{3, 4};

void remove_all_but(Ledger& l, std::uint64_t skip_source, std::uint64_t skip_seq) {
    for (std::uint64_t s = 0; s < 3; ++s) {
        if (!(skip_source == 0 && skip_seq == s)) l.removed(make_tag(0, s));
    }
    for (std::uint64_t s = 0; s < 4; ++s) {
        if (!(skip_source == 1 && skip_seq == s)) l.removed(make_tag(1, s));
    }
}

void output_check_catches_lost_and_duplicated_tags() {
    {
        Ledger l = pushed_ledger();
        remove_all_but(l, 9, 9);
        CHECK(l.verify(kSeqEnd).empty());
    }
    {  // one tag lost
        Ledger l = pushed_ledger();
        remove_all_but(l, 1, 2);
        CHECK(!l.verify(kSeqEnd).empty());
    }
    {  // one tag duplicated
        Ledger l = pushed_ledger();
        remove_all_but(l, 9, 9);
        l.removed(make_tag(0, 1));
        CHECK(!l.verify(kSeqEnd).empty());
    }
    {  // one lost and another duplicated: the counts agree, the hash does not
        Ledger l = pushed_ledger();
        remove_all_but(l, 1, 3);
        l.removed(make_tag(1, 0));
        CHECK(l.pushes() == l.removals());
        CHECK(!l.verify(kSeqEnd).empty());
    }
    {  // a tag that was never pushed
        Ledger l = pushed_ledger();
        remove_all_but(l, 9, 9);
        l.seen(make_tag(1, 7));
        CHECK(!l.verify(kSeqEnd).empty());
        Ledger f = pushed_ledger();
        remove_all_but(f, 9, 9);
        f.seen(make_tag(5, 0));
        CHECK(!f.verify(kSeqEnd).empty());
    }
    {  // per-thread ledgers merge into one verdict
        Ledger a(2);
        Ledger b(2);
        a.pushed(make_tag(1, 0));
        a.pushed(make_tag(1, 1));
        b.removed(make_tag(1, 1));
        a.removed(make_tag(1, 0));
        a.merge(b);
        CHECK(a.verify({0, 2}).empty());
    }
}

void percentiles_carry_sample_counts() {
    LatencyHistogram h;
    for (int i = 1; i <= 2000; ++i) h.record(i);
    const Percentiles p = percentiles(h);
    CHECK(p.n == 2000);
    CHECK(p.mean == 1000.5);
    CHECK(sample_note(p) == "n=2000");
    // quantile_ns gives the bucket's upper bound (1855 for the p90);
    // interpolating by rank inside the bucket recovers the sample's value.
    CHECK(h.quantile_ns(0.90) == 1855);
    CHECK(std::fabs(p.p50 - 1000) <= 1);
    CHECK(std::fabs(p.p90 - 1800) <= 1);
    CHECK(std::fabs(p.p99 - 1980) <= 1);
    CHECK(p.max == 2047);  // the largest sample's bucket bound
    CHECK(p.p99_supported());

    LatencyHistogram few_h;
    for (std::uint64_t v : {5, 1, 3}) few_h.record(v);
    const Percentiles few = percentiles(few_h);
    CHECK(few.n == 3);
    CHECK(few.p50 >= 3 && few.p50 < 4);
    CHECK(!few.p99_supported());  // fewer than ten samples beyond p99
    CHECK(sample_note(few) == "n=3 (too few for a p99)");

    const Percentiles none = percentiles(LatencyHistogram{});
    CHECK(none.n == 0 && none.p50 == 0);

    // Per-window figures: the median window's, with the smallest count;
    // empty windows are skipped.
    std::vector<LatencyHistogram> windows(4);
    windows[0].record(100);
    for (int i = 0; i < 5; ++i) windows[1].record(300);
    windows[2].record(200);
    windows[2].record(200);
    std::vector<Percentiles> figures;
    for (const LatencyHistogram& w : windows) figures.push_back(percentiles(w));
    const Percentiles m = median_over(figures);
    CHECK(m.mean == 200 && m.n == 1);
}

void schedules_repeat_for_a_seed() {
    auto make = [](std::uint64_t seed) {
        OpStream ops(stream(seed, Purpose::kOps, 0), 50, 50, 1 << 15);
        return make_schedule(stream(seed, Purpose::kArrivals, 0), ops, 50000,
                             0.5);
    };
    const Schedule a = make(42);
    const Schedule b = make(42);
    const Schedule c = make(43);
    CHECK(a.due_ns == b.due_ns);
    CHECK(a.ops == b.ops);
    CHECK(a.due_ns != c.due_ns);
    // Poisson at 50 K/s for 0.5 s: 25000 expected, sd ~158.
    CHECK(a.due_ns.size() > 24000 && a.due_ns.size() < 26000);
    bool ascending = true;
    for (std::size_t i = 1; i < a.due_ns.size(); ++i) {
        ascending = ascending && a.due_ns[i - 1] <= a.due_ns[i];
    }
    CHECK(ascending);
    CHECK(a.due_ns.back() < 500'000'000);
}

void op_stream_clamp_bounds_the_deficit() {
    OpStream ops(stream(7, Purpose::kOps, 0), 0, 100, 5);  // pops only
    int deficit = 0;
    int worst = 0;
    for (int i = 0; i < 1000; ++i) {
        const Op op = ops.next();
        deficit += op == Op::kPop ? 1 : -1;
        worst = deficit > worst ? deficit : worst;
    }
    CHECK(worst == 5);
}

void self_time_subtracts_covered_child_time() {
    // parent [0,100]; children [10,30] and [20,40] overlap, [90,120] is
    // clipped to the parent; the grandchild [12,18] counts for its own
    // parent only.
    std::vector<Span> spans = {
        {"parent", 0, 100, 1, 0, 0, 0},
        {"a", 10, 30, 2, 1, 0, 0},
        {"b", 20, 40, 3, 1, 0, 0},
        {"c", 90, 120, 4, 1, 0, 0},
        {"grandchild", 12, 18, 5, 2, 0, 0},
        {"orphan", 0, 50, 6, 99, 0, 0},  // parent not in the trace
    };
    const std::vector<std::uint64_t> self = self_times(spans);
    CHECK(self[0] == 100 - 30 - 10);  // union [10,40] + [90,100]
    CHECK(self[1] == 20 - 6);
    CHECK(self[2] == 20);
    CHECK(self[3] == 30);
    CHECK(self[4] == 6);
    CHECK(self[5] == 50);

    const std::vector<SpanTotals> totals = fold_by_name(spans);
    for (const SpanTotals& t : totals) {
        if (t.name == "parent") CHECK(t.self_ns == 60 && t.total_ns == 100);
    }

    SpanBuffer buf(3, 2);
    const std::uint64_t id = buf.reserve_id();
    CHECK(buf.add("x", 0, 1) != id);
    CHECK(buf.add("y", 0, 1, 0, 0, id) == id);
    buf.add("z", 0, 1);  // past the cap: dropped, counted
    CHECK(buf.spans().size() == 2 && buf.dropped() == 1);
}

}  // namespace

int main() {
    output_check_catches_lost_and_duplicated_tags();
    percentiles_carry_sample_counts();
    schedules_repeat_for_a_seed();
    op_stream_clamp_bounds_the_deficit();
    self_time_subtracts_covered_child_time();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
