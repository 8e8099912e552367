/**
 * @file
 * BENCH_*.json -> RESULTS.md summary generator.
 *
 * Reads every BENCH_*.json in a directory (first argv, else
 * $TARTAN_BENCH_DIR, else the CWD), validates each against the bench
 * schema, and regenerates a RESULTS.md summary: one section per bench
 * with its top-level metrics and a compact per-row table. CI runs this
 * after the bench smokes so the committed RESULTS.md and the uploaded
 * artifact always reflect the benches that actually ran.
 *
 * Usage: report_md [bench_dir [output.md]]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "report_format.hh"
#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/report.hh"

namespace {

using tartan::bench::formatMetric;
using tartan::bench::formatNumber;
using tartan::bench::formatQuarantine;
using tartan::sim::json::Value;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** One parsed bench document. */
struct BenchDoc {
    std::string file;
    Value doc;
};

/**
 * Render the bench's cpi block as a stacked-breakdown table: one row
 * per (run, kernel), one column per category that is nonzero in at
 * least one row, each cell showing that category's share of the row's
 * cycles. Structurally-zero categories are dropped so the table stays
 * readable.
 */
void
emitCpi(std::ostream &os, const Value &cpi)
{
    const Value *cats = cpi.find("categories");
    const Value *rows = cpi.find("rows");
    if (!cats || !rows || rows->array.empty())
        return;

    std::vector<std::string> used;
    for (const Value &cat : cats->array) {
        for (const Value &row : rows->array) {
            const Value *stack = row.find("stack");
            const Value *v = stack ? stack->find(cat.string) : nullptr;
            if (v && v->number > 0) {
                used.push_back(cat.string);
                break;
            }
        }
    }
    if (used.empty())
        return;

    os << "CPI stacks (share of each run/kernel's cycles):\n\n";
    os << "| run | kernel | cycles |";
    for (const auto &c : used)
        os << " " << c << " |";
    os << "\n|---|---|---|";
    for (std::size_t i = 0; i < used.size(); ++i)
        os << "---|";
    os << "\n";
    for (const Value &row : rows->array) {
        const Value *run = row.find("run");
        const Value *kernel = row.find("kernel");
        const Value *cycles = row.find("cycles");
        const Value *stack = row.find("stack");
        const double total = cycles ? cycles->number : 0.0;
        os << "| " << (run ? run->string : "?") << " | "
           << (kernel ? kernel->string : "?") << " | "
           << formatNumber(total) << " |";
        for (const auto &c : used) {
            const Value *v = stack ? stack->find(c) : nullptr;
            const double share =
                v && total > 0 ? 100.0 * v->number / total : 0.0;
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.1f%%", share);
            os << " " << buf << " |";
        }
        os << "\n";
    }
    os << "\n";
}

void
emitBench(std::ostream &os, const BenchDoc &bench)
{
    const Value *name = bench.doc.find("bench");
    os << "## " << (name ? name->string : bench.file) << "\n\n";

    if (const Value *manifest = bench.doc.find("manifest")) {
        if (const Value *paper = manifest->find("paper"))
            os << "> " << paper->string << "\n\n";
        if (const Value *cap = manifest->find("capture")) {
            const Value *captures = cap->find("captures");
            const Value *hits = cap->find("fileHits");
            const Value *replays = cap->find("replays");
            os << "Capture/replay: "
               << formatNumber(captures ? captures->number : 0)
               << " captured, "
               << formatNumber(hits ? hits->number : 0)
               << " loaded from file, "
               << formatNumber(replays ? replays->number : 0)
               << " op streams replayed without robot execution.\n\n";
        }
        os << formatQuarantine(*manifest);
    }

    const Value *config = bench.doc.find("config");
    if (config && !config->object.empty()) {
        os << "Config: ";
        bool first = true;
        for (const auto &[k, v] : config->object) {
            if (!first)
                os << ", ";
            first = false;
            os << k << "=";
            if (v.isString())
                os << v.string;
            else
                os << formatNumber(v.number);
        }
        os << "\n\n";
    }

    const Value *metrics = bench.doc.find("metrics");
    if (metrics && !metrics->object.empty()) {
        os << "| metric | value |\n|---|---|\n";
        for (const auto &[k, v] : metrics->object)
            os << "| " << k << " | " << formatMetric(v) << " |\n";
        os << "\n";
    }

    const Value *kernels = bench.doc.find("kernels");
    if (kernels && !kernels->array.empty()) {
        // Collect the union of per-row metric names for the header.
        std::vector<std::string> cols;
        for (const Value &row : kernels->array) {
            if (const Value *m = row.find("metrics"))
                for (const auto &[k, v] : m->object) {
                    (void)v;
                    if (std::find(cols.begin(), cols.end(), k) ==
                        cols.end())
                        cols.push_back(k);
                }
        }
        std::sort(cols.begin(), cols.end());
        os << "| row |";
        for (const auto &c : cols)
            os << " " << c << " |";
        os << "\n|---|";
        for (std::size_t i = 0; i < cols.size(); ++i)
            os << "---|";
        os << "\n";
        for (const Value &row : kernels->array) {
            const Value *row_name = row.find("name");
            os << "| " << (row_name ? row_name->string : "?") << " |";
            const Value *m = row.find("metrics");
            for (const auto &c : cols) {
                const Value *v = m ? m->find(c) : nullptr;
                os << " " << (v ? formatMetric(*v) : "") << " |";
            }
            os << "\n";
        }
        os << "\n";
    }

    if (const Value *cpi = bench.doc.find("cpi"))
        emitCpi(os, *cpi);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir;
    if (argc > 1)
        dir = argv[1];
    else if (!tartan::sim::RunEnv::get().benchDir.empty())
        dir = tartan::sim::RunEnv::get().benchDir;
    else
        dir = ".";
    const std::string out_path =
        argc > 2 ? argv[2] : dir + "/RESULTS.md";

    DIR *d = opendir(dir.c_str());
    if (!d) {
        std::fprintf(stderr, "report_md: cannot open directory %s\n",
                     dir.c_str());
        return 1;
    }
    std::vector<std::string> files;
    while (const dirent *entry = readdir(d)) {
        const std::string fname = entry->d_name;
        if (fname.rfind("BENCH_", 0) == 0 &&
            fname.size() > 5 + 6 &&
            fname.compare(fname.size() - 5, 5, ".json") == 0)
            files.push_back(fname);
    }
    closedir(d);
    std::sort(files.begin(), files.end());

    if (files.empty()) {
        std::fprintf(stderr, "report_md: no BENCH_*.json in %s\n",
                     dir.c_str());
        return 1;
    }

    std::vector<BenchDoc> benches;
    for (const auto &fname : files) {
        const std::string text = readFile(dir + "/" + fname);
        std::string err;
        if (!tartan::sim::validateBenchJson(text, &err)) {
            std::fprintf(stderr, "report_md: %s fails schema: %s\n",
                         fname.c_str(), err.c_str());
            return 1;
        }
        BenchDoc bench;
        bench.file = fname;
        if (!tartan::sim::json::parse(text, bench.doc, &err)) {
            std::fprintf(stderr, "report_md: %s unparseable: %s\n",
                         fname.c_str(), err.c_str());
            return 1;
        }
        benches.push_back(std::move(bench));
    }

    const bool ok = tartan::sim::json::writeFileDurable(
        out_path,
        [&](std::ostream &os) {
            os << "# Bench results\n\n"
               << "Generated by `bench/report_md` from the BENCH_*.json "
               << "documents\nevery bench driver emits (see README, "
               << "Observability). Regenerate with:\n\n"
               << "```\nbuild/bench/report_md <bench-dir> RESULTS.md\n"
               << "```\n\n";
            for (const auto &bench : benches)
                emitBench(os, bench);
        },
        "report");
    if (!ok)
        return 1;
    std::printf("report_md: %zu benches -> %s\n", benches.size(),
                out_path.c_str());
    return 0;
}
