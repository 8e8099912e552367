/**
 * @file
 * BENCH_*.json regression differ.
 *
 * Compares two bench payloads — or two directories of them — value by
 * value: top-level metrics, per-row kernel metrics, and per-kernel CPI
 * stacks. The manifest (git hash, timestamp, trace paths) is ignored by
 * construction; everything else must match within the configured
 * relative tolerances. Exits non-zero when any value regresses, which
 * is what lets CI gate merges on the committed bench/baselines/ tree:
 * the simulator's addressing is deterministic, so exact (tol 0)
 * comparison is the default.
 *
 * Usage:
 *   bench_diff <baseline> <candidate> [--tol X] [--tol-cpi Y]
 *
 * <baseline>/<candidate> are BENCH_*.json files or directories; in
 * directory mode the BENCH_*.json filename intersection is compared
 * and a baseline file missing from the candidate is itself a failure
 * (a bench silently disappearing must not pass). --tol sets the
 * relative tolerance for plain metrics, --tol-cpi for CPI-stack cycle
 * categories; both default to 0 (exact).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "sim/cpistack.hh"
#include "sim/json.hh"
#include "sim/report.hh"

namespace {

using tartan::sim::json::Value;

/** Comparison configuration + running tallies of one diff invocation. */
struct DiffState {
    double tol = 0.0;
    double tolCpi = 0.0;
    std::size_t compared = 0;
    std::size_t differing = 0;
    std::string currentFile;
    bool headerPrinted = false;

    /** Report one differing value (lazily printing the file header). */
    void
    fail(const std::string &what)
    {
        if (!headerPrinted) {
            std::printf("%s:\n", currentFile.c_str());
            headerPrinted = true;
        }
        std::printf("  %s\n", what.c_str());
        ++differing;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
isDirectory(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/** BENCH_*.json filenames in @p dir, sorted. */
std::vector<std::string>
benchFiles(const std::string &dir)
{
    std::vector<std::string> files;
    DIR *d = opendir(dir.c_str());
    if (!d)
        return files;
    while (const dirent *entry = readdir(d)) {
        const std::string fname = entry->d_name;
        if (fname.rfind("BENCH_", 0) == 0 && fname.size() > 11 &&
            fname.compare(fname.size() - 5, 5, ".json") == 0)
            files.push_back(fname);
    }
    closedir(d);
    std::sort(files.begin(), files.end());
    return files;
}

std::string
fmtValue(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Compare one numeric pair under relative tolerance @p tol: a pass is
 * |a-b| <= tol * max(|a|,|b|), so tol 0 demands bit-for-bit printed
 * equality. A NaN pair (the JSON emitters write NaN as null, parsed
 * back as 0-width Null handled by the caller) never reaches here.
 */
void
checkValue(DiffState &st, const std::string &what, double base,
           double cand, double tol)
{
    ++st.compared;
    const double diff = std::fabs(base - cand);
    if (diff <= tol * std::max(std::fabs(base), std::fabs(cand)) &&
        (tol > 0.0 || base == cand))
        return;
    const double rel =
        base != 0.0 ? 100.0 * (cand - base) / std::fabs(base) : 0.0;
    st.fail(what + ": " + fmtValue(base) + " -> " + fmtValue(cand) +
            " (" + fmtValue(rel) + "%, tol " + fmtValue(100.0 * tol) +
            "%)");
}

/**
 * Compare two flat metric objects: every baseline key must exist in the
 * candidate and match within @p tol. A both-null pair (NaN metrics are
 * emitted as null) counts as equal; null against a number is a diff.
 * Keys only in the candidate are new metrics, not regressions.
 */
void
checkMetricsObject(DiffState &st, const std::string &prefix,
                   const Value &base, const Value &cand, double tol)
{
    for (const auto &[key, bv] : base.object) {
        const Value *cv = cand.find(key);
        if (!cv) {
            st.fail(prefix + "." + key + ": missing from candidate");
            ++st.compared;
            continue;
        }
        if (bv.isNull() && cv->isNull()) {
            ++st.compared;
            continue;
        }
        if (bv.isNull() != cv->isNull()) {
            ++st.compared;
            st.fail(prefix + "." + key + ": null vs non-null");
            continue;
        }
        checkValue(st, prefix + "." + key, bv.number, cv->number, tol);
    }
}

/** Index a kernels array by row name. */
std::map<std::string, const Value *>
kernelsByName(const Value *kernels)
{
    std::map<std::string, const Value *> out;
    if (kernels && kernels->isArray())
        for (const Value &row : kernels->array)
            if (const Value *name = row.find("name"))
                out[name->string] = &row;
    return out;
}

/** Index a cpi rows array by "run\x1f kernel". */
std::map<std::string, const Value *>
cpiRowsByKey(const Value *cpi)
{
    std::map<std::string, const Value *> out;
    const Value *rows = cpi ? cpi->find("rows") : nullptr;
    if (rows && rows->isArray())
        for (const Value &row : rows->array) {
            const Value *run = row.find("run");
            const Value *kernel = row.find("kernel");
            if (run && kernel)
                out[run->string + "\x1f" + kernel->string] = &row;
        }
    return out;
}

/** Compare one pair of parsed bench documents. */
void
diffDocs(DiffState &st, const Value &base, const Value &cand)
{
    // Config echo: a knob change makes the comparison apples-to-oranges,
    // so it is reported as a difference rather than silently absorbed.
    const Value *bcfg = base.find("config");
    const Value *ccfg = cand.find("config");
    if (bcfg && bcfg->isObject()) {
        for (const auto &[key, bv] : bcfg->object) {
            const Value *cv = ccfg ? ccfg->find(key) : nullptr;
            ++st.compared;
            if (!cv) {
                st.fail("config." + key + ": missing from candidate");
            } else if (bv.isString() != cv->isString() ||
                       (bv.isString() && bv.string != cv->string) ||
                       (bv.isNumber() && bv.number != cv->number)) {
                st.fail("config." + key + ": baseline '" +
                        (bv.isString() ? bv.string : fmtValue(bv.number)) +
                        "' vs candidate '" +
                        (cv->isString() ? cv->string
                                        : fmtValue(cv->number)) +
                        "'");
            }
        }
    }

    const Value *bm = base.find("metrics");
    const Value *cm = cand.find("metrics");
    if (bm && bm->isObject())
        checkMetricsObject(st, "metrics", *bm,
                           cm && cm->isObject() ? *cm : Value{}, st.tol);

    const auto bkernels = kernelsByName(base.find("kernels"));
    const auto ckernels = kernelsByName(cand.find("kernels"));
    for (const auto &[name, brow] : bkernels) {
        const auto it = ckernels.find(name);
        if (it == ckernels.end()) {
            ++st.compared;
            st.fail("kernels[" + name + "]: missing from candidate");
            continue;
        }
        const Value *bmet = brow->find("metrics");
        const Value *cmet = it->second->find("metrics");
        if (bmet && bmet->isObject())
            checkMetricsObject(st, "kernels[" + name + "]", *bmet,
                               cmet && cmet->isObject() ? *cmet
                                                        : Value{},
                               st.tol);
    }

    // CPI stacks: cycles and every category, under the cpi tolerance.
    const auto brows = cpiRowsByKey(base.find("cpi"));
    const auto crows = cpiRowsByKey(cand.find("cpi"));
    for (const auto &[key, brow] : brows) {
        const std::string label = "cpi[" + [&] {
            std::string k = key;
            const std::size_t sep = k.find('\x1f');
            if (sep != std::string::npos)
                k = k.substr(0, sep) + "/" + k.substr(sep + 1);
            return k;
        }() + "]";
        const auto it = crows.find(key);
        if (it == crows.end()) {
            ++st.compared;
            st.fail(label + ": missing from candidate");
            continue;
        }
        const Value *bcycles = brow->find("cycles");
        const Value *ccycles = it->second->find("cycles");
        if (bcycles && ccycles)
            checkValue(st, label + ".cycles", bcycles->number,
                       ccycles->number, st.tolCpi);
        const Value *bstack = brow->find("stack");
        const Value *cstack = it->second->find("stack");
        if (bstack && bstack->isObject())
            checkMetricsObject(st, label, *bstack,
                               cstack && cstack->isObject() ? *cstack
                                                            : Value{},
                               st.tolCpi);
    }
}

/** Load + schema-validate one payload; false on any failure. */
bool
loadBench(const std::string &path, Value &out)
{
    const std::string text = readFile(path);
    if (text.empty()) {
        std::fprintf(stderr, "bench_diff: cannot read %s\n",
                     path.c_str());
        return false;
    }
    std::string err;
    if (!tartan::sim::validateBenchJson(text, &err)) {
        std::fprintf(stderr, "bench_diff: %s fails schema: %s\n",
                     path.c_str(), err.c_str());
        return false;
    }
    if (!tartan::sim::json::parse(text, out, &err)) {
        std::fprintf(stderr, "bench_diff: %s unparseable: %s\n",
                     path.c_str(), err.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    DiffState st;

    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tol" && i + 1 < argc) {
            st.tol = std::atof(argv[++i]);
        } else if (arg == "--tol-cpi" && i + 1 < argc) {
            st.tolCpi = std::atof(argv[++i]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bench_diff: unknown flag %s\n",
                         arg.c_str());
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2 || st.tol < 0 || st.tolCpi < 0) {
        std::fprintf(stderr,
                     "usage: bench_diff <baseline> <candidate> "
                     "[--tol X] [--tol-cpi Y]\n"
                     "  baseline/candidate: BENCH_*.json file or "
                     "directory of them\n");
        return 2;
    }

    // Resolve the (baseline file, candidate file) pairs to compare.
    std::vector<std::pair<std::string, std::string>> pairs;
    if (isDirectory(paths[0]) && isDirectory(paths[1])) {
        const std::vector<std::string> base_files = benchFiles(paths[0]);
        if (base_files.empty()) {
            std::fprintf(stderr, "bench_diff: no BENCH_*.json in %s\n",
                         paths[0].c_str());
            return 2;
        }
        const std::vector<std::string> cand_files = benchFiles(paths[1]);
        for (const auto &fname : base_files) {
            if (std::find(cand_files.begin(), cand_files.end(), fname) ==
                cand_files.end()) {
                st.currentFile = fname;
                st.headerPrinted = false;
                ++st.compared;
                st.fail("baseline bench missing from candidate "
                        "directory");
                continue;
            }
            pairs.emplace_back(paths[0] + "/" + fname,
                               paths[1] + "/" + fname);
        }
    } else if (!isDirectory(paths[0]) && !isDirectory(paths[1])) {
        pairs.emplace_back(paths[0], paths[1]);
    } else {
        std::fprintf(stderr, "bench_diff: %s and %s must both be files "
                             "or both directories\n",
                     paths[0].c_str(), paths[1].c_str());
        return 2;
    }

    for (const auto &[bpath, cpath] : pairs) {
        Value base, cand;
        if (!loadBench(bpath, base) || !loadBench(cpath, cand))
            return 2;
        st.currentFile = cpath;
        st.headerPrinted = false;
        diffDocs(st, base, cand);
    }

    std::printf("bench_diff: %zu values compared, %zu differ "
                "(tol %.4g%%, cpi tol %.4g%%) -> %s\n",
                st.compared, st.differing, 100.0 * st.tol,
                100.0 * st.tolCpi, st.differing ? "FAIL" : "OK");
    return st.differing ? 1 : 0;
}
