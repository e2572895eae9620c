// bench_json.cpp — the BENCH_*.json snapshot writer and median-of-N
// (workload/bench_json.hpp). The writer emits the one schema this file
// owns; nothing here reads JSON back.
#include "workload/bench_json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include "exec/topology.hpp"

// Build facts injected per-source by CMake (see set_source_files_properties
// in CMakeLists.txt); the fallbacks keep non-CMake builds compiling.
#ifndef SEC_GIT_SHA
#define SEC_GIT_SHA "unknown"
#endif
#ifndef SEC_CXX_FLAGS
#define SEC_CXX_FLAGS ""
#endif
#ifndef SEC_BUILD_TYPE
#define SEC_BUILD_TYPE ""
#endif
#ifndef SEC_NATIVE_BUILD
#define SEC_NATIVE_BUILD 0
#endif

namespace sec::bench::json {

namespace {

// ---- writing ---------------------------------------------------------------

void append_escaped(std::string& out, std::string_view s) {
    out += '"';
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(ch));
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    out += '"';
}

// Shortest decimal that parses back to the exact double, so a reader gets
// the value the run measured, bit for bit.
void append_double(std::string& out, double v) {
    if (!std::isfinite(v)) {  // JSON has no inf/nan; clamp to 0, loudly odd
        out += "0";
        return;
    }
    char buf[40];
    for (int prec = 9; prec <= 17; prec += 4) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v) break;
    }
    out += buf;
}

void append_kv(std::string& out, std::string_view key, std::string_view v) {
    append_escaped(out, key);
    out += ": ";
    append_escaped(out, v);
}

void append_kv(std::string& out, std::string_view key, double v) {
    append_escaped(out, key);
    out += ": ";
    append_double(out, v);
}

void append_kv(std::string& out, std::string_view key, bool v) {
    append_escaped(out, key);
    out += v ? ": true" : ": false";
}

// ---- median-of-N helpers ---------------------------------------------------

std::string cell_id(const Cell& c) {
    // '\x1f' (unit separator) cannot appear in scenario/table names.
    return c.table + '\x1f' + c.key + '\x1f' + c.column;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace

// ---- Snapshot --------------------------------------------------------------

void Snapshot::add(std::string_view table, std::string_view key,
                   std::string_view column, std::string_view unit,
                   double value) {
    cells.push_back(Cell{std::string(table), std::string(key),
                         std::string(column), std::string(unit), value});
}

Metadata build_metadata() {
    Metadata m;
    m.git_sha = SEC_GIT_SHA;
    m.flags = SEC_CXX_FLAGS;
    m.build_type = SEC_BUILD_TYPE;
    m.march_native = SEC_NATIVE_BUILD != 0;
#if defined(__clang__)
    m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    m.compiler = std::string("gcc ") + __VERSION__;
#else
    m.compiler = "unknown";
#endif
    m.cores = std::thread::hardware_concurrency();
    const topo::Topology& t = topo::Topology::system();
    m.packages = t.packages();
    m.cores_per_package = t.cores_per_package();
    m.smt_width = t.smt_width();
    m.l3_domains = t.l3_domains();
    return m;
}

// ---- file IO ---------------------------------------------------------------

bool write_snapshot(const Snapshot& snap, const std::string& path,
                    std::string* err) {
    std::string out;
    out.reserve(1024 + snap.cells.size() * 96);
    out += "{\n  \"schema\": \"sec-bench-snapshot-v1\",\n  \"meta\": {\n";
    const Metadata& m = snap.meta;
    auto line = [&out](const char* text) { out += text; };
    out += "    ";
    append_kv(out, "git_sha", m.git_sha);
    line(",\n    ");
    append_kv(out, "compiler", m.compiler);
    line(",\n    ");
    append_kv(out, "flags", m.flags);
    line(",\n    ");
    append_kv(out, "build_type", m.build_type);
    line(",\n    ");
    append_kv(out, "march_native", m.march_native);
    line(",\n    ");
    append_kv(out, "cores", static_cast<double>(m.cores));
    line(",\n    ");
    append_kv(out, "packages", static_cast<double>(m.packages));
    line(",\n    ");
    append_kv(out, "cores_per_package",
              static_cast<double>(m.cores_per_package));
    line(",\n    ");
    append_kv(out, "smt_width", static_cast<double>(m.smt_width));
    line(",\n    ");
    append_kv(out, "l3_domains", static_cast<double>(m.l3_domains));
    line(",\n    ");
    append_kv(out, "pin", m.pin);
    line(",\n    ");
    append_kv(out, "scenarios", m.scenarios);
    line(",\n    ");
    append_kv(out, "algos", m.algos);
    line(",\n    ");
    append_kv(out, "smoke", m.smoke);
    line(",\n    ");
    append_escaped(out, "threads");
    out += ": [";
    for (std::size_t i = 0; i < m.threads.size(); ++i) {
        if (i > 0) out += ", ";
        append_double(out, static_cast<double>(m.threads[i]));
    }
    out += "]";
    line(",\n    ");
    append_kv(out, "duration_ms", static_cast<double>(m.duration_ms));
    line(",\n    ");
    append_kv(out, "runs", static_cast<double>(m.runs));
    line(",\n    ");
    append_kv(out, "repeats", static_cast<double>(m.repeats));
    line(",\n    ");
    append_kv(out, "prefill", static_cast<double>(m.prefill));
    line(",\n    ");
    append_kv(out, "seed", static_cast<double>(m.seed));
    out += "\n  },\n  \"cells\": [\n";
    for (std::size_t i = 0; i < snap.cells.size(); ++i) {
        const Cell& c = snap.cells[i];
        out += "    {";
        append_kv(out, "table", c.table);
        out += ", ";
        append_kv(out, "key", c.key);
        out += ", ";
        append_kv(out, "column", c.column);
        out += ", ";
        append_kv(out, "unit", c.unit);
        out += ", ";
        append_kv(out, "value", c.value);
        out += i + 1 < snap.cells.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (err != nullptr) *err = "cannot open '" + path + "' for writing";
        return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (!ok && err != nullptr) *err = "short write to '" + path + "'";
    return ok;
}

// ---- median-of-N ------------------------------------------------------------

Snapshot median_of(const std::vector<Snapshot>& runs) {
    Snapshot out;
    if (runs.empty()) return out;
    out.meta = runs.front().meta;

    std::vector<Cell> order;                         // first-appearance order
    std::map<std::string, std::size_t> index;        // cell id -> order slot
    std::vector<std::vector<double>> samples;
    for (const Snapshot& run : runs) {
        // Within one run a re-written identity keeps its LAST value (the
        // Table::add contract), so collapse per run before sampling.
        std::map<std::string, double> last;
        for (const Cell& c : run.cells) {
            const std::string id = cell_id(c);
            if (index.find(id) == index.end()) {
                index.emplace(id, order.size());
                order.push_back(c);
                samples.emplace_back();
            }
            last[id] = c.value;
        }
        for (const auto& [id, value] : last) {
            samples[index.at(id)].push_back(value);
        }
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i].value = median(samples[i]);
    }
    out.cells = std::move(order);
    return out;
}

}  // namespace sec::bench::json
