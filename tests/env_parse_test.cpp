// env_parse_test.cpp — the strict parsers every bench flag goes through:
// garbage values are rejected (never silently read as 0 or a truncated
// prefix), a thread grid with any bad token is rejected whole, a decimal
// is plain digits with an optional fraction and nothing strtod would also
// take, and over-bound thread counts are clamped to the library's
// live-thread bound with a warning. Also the run defaults EnvConfig
// starts from.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "workload/env.hpp"

namespace sb = sec::bench;

namespace {

constexpr unsigned kThreadBound = static_cast<unsigned>(sec::kMaxThreads) - 8;

bool rejects_u64(const char* v) {
    std::uint64_t out = 7;
    const bool ok = sb::parse_u64_strict(v, out);
    EXPECT_EQ(out, 7u) << v;  // a rejected value leaves the output alone
    return !ok;
}

bool rejects_decimal(const char* v) {
    double out = 7;
    return !sb::parse_decimal_strict(v, out);
}

}  // namespace

TEST(RunDefaults, QuickLookOverTheSmallGrid) {
    const sb::EnvConfig cfg;
    EXPECT_EQ(cfg.duration_ms, 200u);
    EXPECT_EQ(cfg.runs, 1u);
    EXPECT_EQ(cfg.prefill, 1000u);
    EXPECT_EQ(cfg.threads, (std::vector<unsigned>{2, 4, 8}));
}

TEST(StrictUnsigned, ValidValuesParse) {
    for (const auto& [text, value] :
         {std::pair<const char*, std::uint64_t>{"350", 350}, {"3", 3},
          {"5000", 5000}, {"42", 42}, {"0", 0}}) {
        std::uint64_t out = 0;
        EXPECT_TRUE(sb::parse_u64_strict(text, out)) << text;
        EXPECT_EQ(out, value) << text;
    }
}

TEST(StrictUnsigned, GarbageIsRejected) {
    // strtoul would have read "abc" as 0: a zero-length measured window.
    EXPECT_TRUE(rejects_u64("abc"));
    EXPECT_TRUE(rejects_u64(""));
}

TEST(StrictUnsigned, TrailingJunkIsNotATruncatedPrefix) {
    // strtoul would have read "2OO" (letter O typos) as 2 ms.
    EXPECT_TRUE(rejects_u64("2OO"));
}

TEST(StrictUnsigned, SignedAndSpacedValuesAreRejected) {
    // strtoul happily wraps "-5" to a huge unsigned value, and skips the
    // space and the sign of " +10".
    EXPECT_TRUE(rejects_u64("-5"));
    EXPECT_TRUE(rejects_u64("+10"));
    EXPECT_TRUE(rejects_u64(" 3"));
}

TEST(StrictUnsigned, OverflowIsRejected) {
    EXPECT_TRUE(rejects_u64("18446744073709551616"));  // 2^64
}

TEST(StrictDecimal, PlainDecimalsParse) {
    for (const auto& [text, value] :
         {std::pair<const char*, double>{"5", 5.0}, {"2.5", 2.5},
          {"0", 0.0}, {"100.25", 100.25}, {"007", 7.0}}) {
        double out = -1;
        EXPECT_TRUE(sb::parse_decimal_strict(text, out)) << text;
        EXPECT_DOUBLE_EQ(out, value) << text;
    }
}

TEST(StrictDecimal, EverythingElseStrtodTakesIsRejected) {
    // Each of these is a number to a bare strtod.
    for (const char* text : {" 5", "inf", "nan", "0x10", " +1e3", "+1",
                             "-1", "1e3", "5 ", "1.", ".5", "1.2.3", ""}) {
        EXPECT_TRUE(rejects_decimal(text)) << "'" << text << "'";
    }
}

TEST(StrictDecimal, OverflowToInfinityIsRejected) {
    const std::string huge(400, '9');
    EXPECT_TRUE(rejects_decimal(huge.c_str()));
}

TEST(ThreadGrid, ValidGridParses) {
    EXPECT_EQ(sb::parse_grid("1,3,5"), (std::vector<unsigned>{1, 3, 5}));
    EXPECT_EQ(sb::parse_grid("2 4"), (std::vector<unsigned>{2, 4}));
}

TEST(ThreadGrid, GridWithABadTokenIsRejectedWhole) {
    // The old parser kept {4, 8} and dropped the tail — a different
    // experiment than the one asked for. Whole-grid-or-nothing instead.
    EXPECT_TRUE(sb::parse_grid("4,8,x16").empty());
}

TEST(ThreadGrid, GridWithAZeroTokenIsRejectedWhole) {
    EXPECT_TRUE(sb::parse_grid("0,4").empty());
}

TEST(ThreadGrid, OverBoundThreadCountIsClampedNotDropped) {
    std::vector<unsigned> grid = sb::parse_grid("1000");
    ASSERT_EQ(grid, (std::vector<unsigned>{1000}));
    sb::clamp_thread_grid(grid);
    EXPECT_EQ(grid, (std::vector<unsigned>{kThreadBound}));
}

TEST(ThreadGrid, ClampOnlyRewritesOverBoundEntries) {
    std::vector<unsigned> grid = {10, 1000, kThreadBound};
    sb::clamp_thread_grid(grid);
    const std::vector<unsigned> expected = {10, kThreadBound, kThreadBound};
    EXPECT_EQ(grid, expected);
}
