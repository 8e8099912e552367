/**
 * @file
 * BenchReporter implementation and schema validation.
 */

#include "sim/report.hh"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tartan::sim {

namespace {

/** ISO-8601 UTC wall-clock timestamp of "now". */
std::string
isoTimestamp()
{
    const auto now = std::chrono::system_clock::now();
    const std::time_t t = std::chrono::system_clock::to_time_t(now);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** `git describe --always --dirty` of the CWD repo, or "unknown". */
std::string
gitDescribe()
{
    FILE *pipe =
        popen("git describe --always --dirty --tags 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    std::array<char, 128> buf{};
    std::string out;
    while (fgets(buf.data(), static_cast<int>(buf.size()), pipe))
        out += buf.data();
    const int rc = pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    if (rc != 0 || out.empty())
        return "unknown";
    return out;
}

} // namespace

BenchReporter::BenchReporter(std::string bench_name, std::string paper_note)
    : benchName(std::move(bench_name)), paperNote(std::move(paper_note))
{
    std::printf("\n=============================================="
                "==================\n");
    std::printf("%s\n", benchName.c_str());
    std::printf("paper: %s\n", paperNote.c_str());
    std::printf("=============================================="
                "==================\n");
}

BenchReporter::~BenchReporter()
{
    if (!written)
        writeFile();
}

void
BenchReporter::config(const std::string &key, const std::string &value)
{
    configVals[key] = ConfigVal{false, value, 0.0};
}

void
BenchReporter::config(const std::string &key, double value)
{
    configVals[key] = ConfigVal{true, {}, value};
}

void
BenchReporter::metric(const std::string &name, double value)
{
    metrics[name] = value;
}

void
BenchReporter::kernelMetric(const std::string &kernel, const std::string &key,
                            double value)
{
    for (auto &[name, row] : kernelRows) {
        if (name == kernel) {
            row[key] = value;
            return;
        }
    }
    kernelRows.emplace_back(kernel,
                            std::map<std::string, double>{{key, value}});
}

void
BenchReporter::cpiRow(const std::string &run, const std::string &kernel,
                      Cycles cycles, const CpiStack &stack)
{
    cpiRows.push_back(CpiRowData{run, kernel, cycles, stack});
}

void
BenchReporter::note(const std::string &text)
{
    noteText = text;
}

void
BenchReporter::cellFailure(const std::string &cell,
                           const std::string &err_class,
                           const std::string &detail, unsigned attempts)
{
    failureRows.push_back(FailureRow{cell, err_class, detail, attempts});
}

void
BenchReporter::campaignStats(std::uint64_t simulated,
                             std::uint64_t journal_hits,
                             std::uint64_t cache_hits, std::uint64_t failed)
{
    campaignTotals.recorded = true;
    campaignTotals.simulated += simulated;
    campaignTotals.journalHits += journal_hits;
    campaignTotals.cacheHits += cache_hits;
    campaignTotals.failed += failed;
}

void
BenchReporter::faultPlan(const std::string &spec, std::uint64_t seed)
{
    faultSpec = spec;
    faultSeed = seed;
}

void
BenchReporter::captureStats(std::uint64_t captures,
                            std::uint64_t file_hits, std::uint64_t replays,
                            std::uint64_t l1_replays)
{
    captureTotals.recorded = true;
    captureTotals.captures = captures;
    captureTotals.fileHits = file_hits;
    captureTotals.replays = replays;
    captureTotals.l1Replays = l1_replays;
}

std::optional<TraceConfig>
BenchReporter::traceConfig(const std::string &run)
{
    auto cfg = TraceConfig::fromEnv(benchName, run);
    if (cfg) {
        tracePaths.push_back(cfg->tracePath());
        tracePaths.push_back(cfg->epochsPath());
    }
    return cfg;
}

void
BenchReporter::writeJson(std::ostream &os) const
{
    os << "{\n  \"bench\": ";
    json::writeString(os, benchName);
    os << ",\n  \"manifest\": {\n    \"git\": ";
    json::writeString(os, gitDescribe());
    os << ",\n    \"timestamp\": ";
    json::writeString(os, isoTimestamp());
    os << ",\n    \"paper\": ";
    json::writeString(os, paperNote);
    os << ",\n    \"faults\": ";
    json::writeString(os, faultSpec);
    os << ",\n    \"faultSeed\": ";
    json::writeNumber(os, static_cast<double>(faultSeed));
    // The CPI taxonomy is echoed in every manifest — with or without
    // cpi rows — so any payload states which category schema it was
    // built against.
    os << ",\n    \"cpiTaxonomyVersion\": "
       << kCpiTaxonomyVersion << ",\n    \"cpiCategories\": [";
    for (std::size_t i = 0; i < kNumCpiCats; ++i) {
        os << (i ? ", " : "");
        json::writeString(os, cpiCatName(CpiCat(i)));
    }
    os << "]";
    if (!noteText.empty()) {
        os << ",\n    \"note\": ";
        json::writeString(os, noteText);
    }
    if (!tracePaths.empty()) {
        os << ",\n    \"traces\": [";
        bool tfirst = true;
        for (const std::string &path : tracePaths) {
            os << (tfirst ? "" : ", ");
            tfirst = false;
            json::writeString(os, path);
        }
        os << "]";
    }
    // Campaign accounting lives in the manifest on purpose: bench_diff
    // compares config/metrics/kernels/cpi only, so where a result came
    // from (fresh, resume store, cache) never perturbs payload comparison.
    if (campaignTotals.recorded) {
        os << ",\n    \"campaign\": {\"simulated\": "
           << campaignTotals.simulated
           << ", \"journalHits\": " << campaignTotals.journalHits
           << ", \"cacheHits\": " << campaignTotals.cacheHits
           << ", \"failed\": " << campaignTotals.failed << "}";
    }
    if (captureTotals.recorded) {
        os << ",\n    \"capture\": {\"captures\": "
           << captureTotals.captures
           << ", \"fileHits\": " << captureTotals.fileHits
           << ", \"replays\": " << captureTotals.replays
           << ", \"l1Replays\": " << captureTotals.l1Replays << "}";
    }
    if (!failureRows.empty()) {
        os << ",\n    \"failures\": [";
        bool ffirst = true;
        for (const FailureRow &row : failureRows) {
            os << (ffirst ? "\n" : ",\n") << "      {\"cell\": ";
            ffirst = false;
            json::writeString(os, row.cell);
            os << ", \"class\": ";
            json::writeString(os, row.errClass);
            os << ", \"detail\": ";
            json::writeString(os, row.detail);
            os << ", \"attempts\": " << row.attempts << "}";
        }
        os << "\n    ]";
    }
    os << "\n  },\n  \"config\": {";
    bool first = true;
    for (const auto &[key, val] : configVals) {
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        json::writeString(os, key);
        os << ": ";
        if (val.isNum)
            json::writeNumber(os, val.num);
        else
            json::writeString(os, val.str);
    }
    os << (first ? "" : "\n  ") << "},\n  \"metrics\": {";
    first = true;
    for (const auto &[key, val] : metrics) {
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        json::writeString(os, key);
        os << ": ";
        json::writeNumber(os, val);
    }
    os << (first ? "" : "\n  ") << "},\n  \"kernels\": [";
    first = true;
    for (const auto &[name, row] : kernelRows) {
        os << (first ? "\n" : ",\n") << "    {\"name\": ";
        first = false;
        json::writeString(os, name);
        os << ", \"metrics\": {";
        bool rfirst = true;
        for (const auto &[key, val] : row) {
            os << (rfirst ? "" : ", ");
            rfirst = false;
            json::writeString(os, key);
            os << ": ";
            json::writeNumber(os, val);
        }
        os << "}}";
    }
    os << (first ? "" : "\n  ") << "]";
    if (!cpiRows.empty()) {
        os << ",\n  \"cpi\": {\n    \"taxonomyVersion\": "
           << kCpiTaxonomyVersion << ",\n    \"categories\": [";
        for (std::size_t i = 0; i < kNumCpiCats; ++i) {
            os << (i ? ", " : "");
            json::writeString(os, cpiCatName(CpiCat(i)));
        }
        os << "],\n    \"rows\": [";
        first = true;
        for (const CpiRowData &row : cpiRows) {
            os << (first ? "\n" : ",\n") << "      {\"run\": ";
            first = false;
            json::writeString(os, row.run);
            os << ", \"kernel\": ";
            json::writeString(os, row.kernel);
            os << ", \"cycles\": " << row.cycles << ", \"stack\": {";
            for (std::size_t i = 0; i < kNumCpiCats; ++i) {
                os << (i ? ", " : "");
                json::writeString(os, cpiCatName(CpiCat(i)));
                os << ": " << row.stack.cat[i];
            }
            os << "}}";
        }
        os << (first ? "" : "\n    ") << "]\n  }";
    }
    os << "\n}\n";
}

std::string
BenchReporter::outputPath() const
{
    // RunEnv snapshot, not getenv: the destination is fixed for the
    // process lifetime and safe to query from any thread.
    std::string dir = RunEnv::get().benchDir;
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + "BENCH_" + benchName + ".json";
}

bool
BenchReporter::writeFile()
{
    written = true;
    const std::string path = outputPath();
    // Rename-into-place so two bench processes sharing one output
    // directory can never interleave writes or expose a torn file.
    if (!json::writeFileDurable(
            path, [this](std::ostream &os) { writeJson(os); }, "bench"))
        return false;
    std::printf("\n[json: %s]\n", path.c_str());
    return true;
}

namespace {

bool
schemaFail(std::string *err, const std::string &msg)
{
    if (err && err->empty())
        *err = msg;
    return false;
}

/** Every member a number, or null: the emitters write NaN as null. */
bool
allNumbers(const json::Value &obj, std::string *err, const char *where)
{
    for (const auto &[key, val] : obj.object)
        if (!val.isNumber() && !val.isNull())
            return schemaFail(err, std::string(where) + "." + key +
                                       " is not a number");
    return true;
}

} // namespace

bool
validateBenchJson(std::string_view text, std::string *err)
{
    json::Value doc;
    std::string perr;
    if (!json::parse(text, doc, &perr))
        return schemaFail(err, "parse error: " + perr);
    if (!doc.isObject())
        return schemaFail(err, "document is not an object");

    const json::Value *bench = doc.find("bench");
    if (!bench || !bench->isString() || bench->string.empty())
        return schemaFail(err, "missing or invalid 'bench'");

    const json::Value *manifest = doc.find("manifest");
    if (!manifest || !manifest->isObject())
        return schemaFail(err, "missing or invalid 'manifest'");
    for (const char *key : {"git", "timestamp", "paper"}) {
        const json::Value *v = manifest->find(key);
        if (!v || !v->isString())
            return schemaFail(err,
                              std::string("manifest.") + key + " missing");
    }
    // Optional but typed: the fault-plan echo added in the robustness
    // PR. Absent in hand-written / historical documents is fine.
    if (const json::Value *v = manifest->find("faults"))
        if (!v->isString())
            return schemaFail(err, "manifest.faults is not a string");
    if (const json::Value *v = manifest->find("faultSeed"))
        if (!v->isNumber())
            return schemaFail(err, "manifest.faultSeed is not a number");
    // The CPI taxonomy echo: optional (historical documents), but when
    // present it must match the compiled taxonomy exactly — a payload
    // built against another category schema must be rejected, not
    // silently half-compared.
    if (const json::Value *v = manifest->find("cpiTaxonomyVersion")) {
        if (!v->isNumber())
            return schemaFail(err,
                              "manifest.cpiTaxonomyVersion not a number");
        if (v->number != double(kCpiTaxonomyVersion))
            return schemaFail(err, "manifest.cpiTaxonomyVersion " +
                                       std::to_string(int(v->number)) +
                                       " != compiled taxonomy version");
    }
    // Campaign-resilience echo: optional (pre-campaign documents), but
    // when present both blocks must be well-typed — a manifest that
    // claims quarantined cells without naming them is invalid.
    if (const json::Value *v = manifest->find("campaign")) {
        if (!v->isObject())
            return schemaFail(err, "manifest.campaign is not an object");
        for (const char *key :
             {"simulated", "journalHits", "cacheHits", "failed"}) {
            const json::Value *field = v->find(key);
            if (!field || !field->isNumber())
                return schemaFail(err, std::string("manifest.campaign.") +
                                           key + " missing or non-number");
        }
    }
    if (const json::Value *v = manifest->find("capture")) {
        if (!v->isObject())
            return schemaFail(err, "manifest.capture is not an object");
        for (const char *key : {"captures", "fileHits", "replays"}) {
            const json::Value *field = v->find(key);
            if (!field || !field->isNumber())
                return schemaFail(err, std::string("manifest.capture.") +
                                           key + " missing or non-number");
        }
        // Payloads written before the L1 section carry no l1Replays.
        if (const json::Value *field = v->find("l1Replays");
            field && !field->isNumber())
            return schemaFail(err, "manifest.capture.l1Replays is not a "
                                   "number");
    }
    if (const json::Value *v = manifest->find("failures")) {
        if (!v->isArray())
            return schemaFail(err, "manifest.failures is not an array");
        for (std::size_t i = 0; i < v->array.size(); ++i) {
            const json::Value &row = v->array[i];
            const std::string where =
                "manifest.failures[" + std::to_string(i) + "]";
            if (!row.isObject())
                return schemaFail(err, where + " is not an object");
            for (const char *key : {"cell", "class", "detail"}) {
                const json::Value *field = row.find(key);
                if (!field || !field->isString())
                    return schemaFail(err, where + "." + key +
                                               " missing or non-string");
            }
            const json::Value *attempts = row.find("attempts");
            if (!attempts || !attempts->isNumber())
                return schemaFail(err, where + ".attempts missing");
        }
    }
    if (const json::Value *v = manifest->find("cpiCategories")) {
        if (!v->isArray() || v->array.size() != kNumCpiCats)
            return schemaFail(err, "manifest.cpiCategories is not the "
                                   "compiled category list");
        for (std::size_t i = 0; i < kNumCpiCats; ++i)
            if (!v->array[i].isString() ||
                v->array[i].string != cpiCatName(CpiCat(i)))
                return schemaFail(err, "manifest.cpiCategories[" +
                                           std::to_string(i) +
                                           "] != '" +
                                           cpiCatName(CpiCat(i)) + "'");
    }

    const json::Value *config = doc.find("config");
    if (!config || !config->isObject())
        return schemaFail(err, "missing or invalid 'config'");
    for (const auto &[key, val] : config->object)
        if (!val.isNumber() && !val.isString())
            return schemaFail(err, "config." + key + " has invalid type");

    const json::Value *metrics = doc.find("metrics");
    if (!metrics || !metrics->isObject())
        return schemaFail(err, "missing or invalid 'metrics'");
    if (!allNumbers(*metrics, err, "metrics"))
        return false;

    const json::Value *kernels = doc.find("kernels");
    if (!kernels || !kernels->isArray())
        return schemaFail(err, "missing or invalid 'kernels'");
    for (std::size_t i = 0; i < kernels->array.size(); ++i) {
        const json::Value &row = kernels->array[i];
        const std::string where = "kernels[" + std::to_string(i) + "]";
        if (!row.isObject())
            return schemaFail(err, where + " is not an object");
        const json::Value *name = row.find("name");
        if (!name || !name->isString() || name->string.empty())
            return schemaFail(err, where + ".name missing");
        const json::Value *km = row.find("metrics");
        if (!km || !km->isObject())
            return schemaFail(err, where + ".metrics missing");
        if (!allNumbers(*km, err, where.c_str()))
            return false;
    }

    // The cpi block: optional, but when present its category set must
    // be exactly the compiled taxonomy (no unknown, no missing) and
    // every row's stack must sum to its cycles.
    if (const json::Value *cpi = doc.find("cpi")) {
        if (!cpi->isObject())
            return schemaFail(err, "'cpi' is not an object");
        const json::Value *version = cpi->find("taxonomyVersion");
        if (!version || !version->isNumber() ||
            version->number != double(kCpiTaxonomyVersion))
            return schemaFail(err, "cpi.taxonomyVersion missing or != "
                                   "compiled taxonomy version");
        const json::Value *cats = cpi->find("categories");
        if (!cats || !cats->isArray() ||
            cats->array.size() != kNumCpiCats)
            return schemaFail(err,
                              "cpi.categories is not the compiled list");
        for (std::size_t i = 0; i < kNumCpiCats; ++i)
            if (!cats->array[i].isString() ||
                cats->array[i].string != cpiCatName(CpiCat(i)))
                return schemaFail(err, "cpi.categories[" +
                                           std::to_string(i) + "] != '" +
                                           cpiCatName(CpiCat(i)) + "'");
        const json::Value *rows = cpi->find("rows");
        if (!rows || !rows->isArray())
            return schemaFail(err, "cpi.rows missing or not an array");
        for (std::size_t i = 0; i < rows->array.size(); ++i) {
            const json::Value &row = rows->array[i];
            const std::string where = "cpi.rows[" + std::to_string(i) +
                                      "]";
            if (!row.isObject())
                return schemaFail(err, where + " is not an object");
            const json::Value *run = row.find("run");
            if (!run || !run->isString())
                return schemaFail(err, where + ".run missing");
            const json::Value *kernel = row.find("kernel");
            if (!kernel || !kernel->isString() ||
                kernel->string.empty())
                return schemaFail(err, where + ".kernel missing");
            const json::Value *cycles = row.find("cycles");
            if (!cycles || !cycles->isNumber())
                return schemaFail(err, where + ".cycles missing");
            const json::Value *stack = row.find("stack");
            if (!stack || !stack->isObject())
                return schemaFail(err, where + ".stack missing");
            double sum = 0.0;
            std::size_t known = 0;
            for (const auto &[key, val] : stack->object) {
                if (cpiCatFromName(key) == CpiCat::NumCats)
                    return schemaFail(err, where + ".stack has unknown "
                                               "category '" + key + "'");
                if (!val.isNumber())
                    return schemaFail(err, where + ".stack." + key +
                                               " is not a number");
                sum += val.number;
                ++known;
            }
            if (known != kNumCpiCats)
                return schemaFail(err, where +
                                           ".stack is missing categories");
            if (std::fabs(sum - cycles->number) > 0.5)
                return schemaFail(err, where + ".stack does not sum to "
                                               ".cycles");
        }
    }
    return true;
}

} // namespace tartan::sim
