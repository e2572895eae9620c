// bench_json_test.cpp — the BENCH_*.json snapshot record
// (workload/bench_json.hpp): the writer's exact text, median-of-N, and the
// build metadata. CMake also runs `secbench --json` and parses its output
// with Python's json module (ctest secbench_json_is_valid_json).
#include "workload/bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sj = sec::bench::json;

namespace {

std::string temp_path(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

sj::Snapshot sample_snapshot() {
    sj::Snapshot s;
    s.meta.git_sha = "abcdef012345";
    s.meta.compiler = "gcc 13.2.0";
    // Escaping stress: quotes, backslash, newline, a control byte ("\x01e"
    // is one hex escape: byte 0x1e, then "nd").
    s.meta.flags = "-O3 \"quoted\" back\\slash\nline\x01end";
    s.meta.build_type = "Release";
    s.meta.march_native = true;
    s.meta.cores = 8;
    s.meta.packages = 2;
    s.meta.cores_per_package = 4;
    s.meta.smt_width = 2;
    s.meta.l3_domains = 2;
    s.meta.pin = "compact";
    s.meta.scenarios = "fig2,micro";
    s.meta.algos = "SEC,TRB";
    s.meta.smoke = true;
    s.meta.threads = {2, 4};
    s.meta.duration_ms = 25;
    s.meta.runs = 1;
    s.meta.repeats = 3;
    s.meta.prefill = 1000;
    s.meta.seed = 42;
    s.add("fig2_50-50", "2", "SEC", "Mops/s", 1.2345678901234567);
    s.add("fig2_50-50", "2", "TRB", "Mops/s", 0.25);
    s.add("micro_ops", "SEC", "static_ns", "", 81.25);
    return s;
}

// The writer's output for sample_snapshot(), byte for byte: fixed key
// order; quotes, backslash, newline and a control byte escaped; doubles in
// the shortest decimal that parses back exactly (17 digits for the first
// value, fewer where they suffice).
constexpr const char* kGolden = R"({
  "schema": "sec-bench-snapshot-v1",
  "meta": {
    "git_sha": "abcdef012345",
    "compiler": "gcc 13.2.0",
    "flags": "-O3 \"quoted\" back\\slash\nline\u001end",
    "build_type": "Release",
    "march_native": true,
    "cores": 8,
    "packages": 2,
    "cores_per_package": 4,
    "smt_width": 2,
    "l3_domains": 2,
    "pin": "compact",
    "scenarios": "fig2,micro",
    "algos": "SEC,TRB",
    "smoke": true,
    "threads": [2, 4],
    "duration_ms": 25,
    "runs": 1,
    "repeats": 3,
    "prefill": 1000,
    "seed": 42
  },
  "cells": [
    {"table": "fig2_50-50", "key": "2", "column": "SEC", "unit": "Mops/s", "value": 1.2345678901234567},
    {"table": "fig2_50-50", "key": "2", "column": "TRB", "unit": "Mops/s", "value": 0.25},
    {"table": "micro_ops", "key": "SEC", "column": "static_ns", "unit": "", "value": 81.25}
  ]
}
)";

TEST(BenchJsonTest, WriteSnapshotMatchesGoldenText) {
    const std::string path = temp_path("sec_bench_json_golden.json");
    std::string err;
    ASSERT_TRUE(sj::write_snapshot(sample_snapshot(), path, &err)) << err;
    std::ostringstream text;
    text << std::ifstream(path).rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(text.str(), kGolden);
}

TEST(BenchJsonTest, MedianOfCollapsesRepeatsPerCell) {
    auto one = [](double a, double b) {
        sj::Snapshot s;
        s.add("t", "1", "A", "Mops/s", a);
        s.add("t", "1", "B", "Mops/s", b);
        return s;
    };
    // Odd count: plain middle. A run may also re-write a cell (last wins).
    std::vector<sj::Snapshot> runs{one(1.0, 10.0), one(5.0, 30.0),
                                   one(3.0, 20.0)};
    runs[0].add("t", "1", "A", "Mops/s", 2.0);  // re-write: 1.0 -> 2.0
    const sj::Snapshot med = sj::median_of(runs);
    ASSERT_EQ(med.cells.size(), 2u);
    EXPECT_EQ(med.cells[0].column, "A");
    EXPECT_DOUBLE_EQ(med.cells[0].value, 3.0);
    EXPECT_EQ(med.cells[1].column, "B");
    EXPECT_DOUBLE_EQ(med.cells[1].value, 20.0);

    // Even count: mean of the two middles; a cell missing from some runs
    // medians over the runs that produced it.
    std::vector<sj::Snapshot> two{one(1.0, 10.0), one(2.0, 20.0)};
    two[0].add("x", "1", "C", "", 7.0);
    const sj::Snapshot med2 = sj::median_of(two);
    ASSERT_EQ(med2.cells.size(), 3u);
    EXPECT_DOUBLE_EQ(med2.cells[0].value, 1.5);
    EXPECT_EQ(med2.cells[2].table, "x");
    EXPECT_DOUBLE_EQ(med2.cells[2].value, 7.0);
}

TEST(BenchJsonTest, BuildMetadataCarriesCompileTimeFacts) {
    const sj::Metadata m = sj::build_metadata();
    EXPECT_FALSE(m.git_sha.empty());
    EXPECT_FALSE(m.compiler.empty());
    EXPECT_GT(m.cores, 0u);
    // Topology half: the system always has at least one package, core, and
    // L3 domain (the flat fallback synthesizes exactly that).
    EXPECT_GT(m.packages, 0u);
    EXPECT_GT(m.cores_per_package, 0u);
    EXPECT_GT(m.smt_width, 0u);
    EXPECT_GT(m.l3_domains, 0u);
}

}  // namespace
