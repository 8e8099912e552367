/**
 * @file
 * Cell-result codec implementation.
 */

#include "workloads/cellcodec.hh"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/checksum.hh"
#include "sim/cpistack.hh"

namespace tartan::workloads {

namespace {

using sim::json::Value;

/** Fetch a string member; false (with @p err) when absent/mistyped. */
bool
member(const Value &obj, const char *key, const Value *&out,
       std::string *err)
{
    out = obj.find(key);
    if (!out) {
        if (err && err->empty())
            *err = std::string("missing '") + key + "'";
        return false;
    }
    return true;
}

/** Decode the u64-as-string member @p key of @p obj. */
bool
memberU64(const Value &obj, const char *key, std::uint64_t &out,
          std::string *err)
{
    const Value *v = nullptr;
    if (!member(obj, key, v, err))
        return false;
    if (!v->isString() || !decodeU64(v->string, out)) {
        if (err && err->empty())
            *err = std::string("bad u64 '") + key + "'";
        return false;
    }
    return true;
}

/** Decode the double-as-hexfloat-string member @p key of @p obj. */
bool
memberDouble(const Value &obj, const char *key, double &out,
             std::string *err)
{
    const Value *v = nullptr;
    if (!member(obj, key, v, err))
        return false;
    if (!v->isString() || !decodeDouble(v->string, out)) {
        if (err && err->empty())
            *err = std::string("bad double '") + key + "'";
        return false;
    }
    return true;
}

/** Decode the plain-string member @p key of @p obj. */
bool
memberString(const Value &obj, const char *key, std::string &out,
             std::string *err)
{
    const Value *v = nullptr;
    if (!member(obj, key, v, err))
        return false;
    if (!v->isString()) {
        if (err && err->empty())
            *err = std::string("bad string '") + key + "'";
        return false;
    }
    out = v->string;
    return true;
}

} // namespace

std::uint64_t
cellSchemaVersion()
{
    return kCellCodecVersion * 1000 + sim::kCpiTaxonomyVersion;
}

std::string
encodeDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    // %a is locale-dependent in exactly one place: the radix character
    // (e.g. ',' under de_DE). Stored payloads must be portable
    // across processes with different LC_NUMERIC, so normalise to '.'
    // — a byte-identity no-op under the "C" locale the baselines were
    // recorded with.
    std::string s = buf;
    for (char &ch : s)
        if (ch == ',')
            ch = '.';
    return s;
}

bool
decodeDouble(const std::string &text, double &out)
{
    // std::from_chars, unlike the historical strtod here, is locale-
    // independent: a payload written under the "C" locale decodes
    // identically in a process running under de_DE (where strtod would
    // stop at the '.' radix and reject the payload). from_chars does
    // not accept a sign or a "0x" prefix itself, so strip them first.
    // Normalise a ','-radix spelling first: payloads written by the
    // pre-fix encoder under a comma-decimal LC_NUMERIC carry e.g.
    // "0x1,8p+1", and rejecting them would invalidate otherwise-good
    // entries recorded on such hosts.
    std::string normalized;
    if (text.find(',') != std::string::npos) {
        normalized = text;
        for (char &ch : normalized)
            if (ch == ',')
                ch = '.';
    }
    const std::string &src = normalized.empty() ? text : normalized;
    const char *first = src.data();
    const char *last = first + src.size();
    if (first == last)
        return false;
    bool negative = false;
    if (*first == '-' || *first == '+') {
        negative = *first == '-';
        ++first;
    }
    std::chars_format fmt = std::chars_format::general;
    if (last - first > 2 && first[0] == '0' &&
        (first[1] == 'x' || first[1] == 'X')) {
        fmt = std::chars_format::hex;
        first += 2;
    }
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, v, fmt);
    if (ec != std::errc() || ptr != last)
        return false;
    out = negative ? -v : v;
    return true;
}

std::string
encodeU64(std::uint64_t v)
{
    return std::to_string(v);
}

bool
decodeU64(const std::string &text, std::uint64_t &out)
{
    // strtoull silently wraps negatives and skips leading whitespace;
    // the encoder emits bare digits only, so accept nothing else.
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

void
encodeKernels(std::ostream &os,
              const std::vector<sim::KernelCounters> &kernels)
{
    os << "[";
    bool first = true;
    for (const sim::KernelCounters &k : kernels) {
        os << (first ? "" : ",") << "{\"n\":";
        first = false;
        sim::json::writeString(os, k.name);
        os << ",\"c\":\"" << encodeU64(k.cycles) << "\",\"m\":\""
           << encodeU64(k.memStallCycles) << "\",\"i\":\""
           << encodeU64(k.instructions) << "\",\"cpi\":[";
        for (std::size_t i = 0; i < sim::kNumCpiCats; ++i)
            os << (i ? "," : "") << "\"" << encodeU64(k.cpi.cat[i])
               << "\"";
        os << "]}";
    }
    os << "]";
}

bool
decodeKernels(const Value &arr, std::vector<sim::KernelCounters> &out)
{
    if (!arr.isArray())
        return false;
    out.clear();
    out.reserve(arr.array.size());
    for (const Value &row : arr.array) {
        if (!row.isObject())
            return false;
        sim::KernelCounters k;
        if (!memberString(row, "n", k.name, nullptr) ||
            !memberU64(row, "c", k.cycles, nullptr) ||
            !memberU64(row, "m", k.memStallCycles, nullptr) ||
            !memberU64(row, "i", k.instructions, nullptr))
            return false;
        const Value *cpi = row.find("cpi");
        if (!cpi || !cpi->isArray() ||
            cpi->array.size() != sim::kNumCpiCats)
            return false;
        for (std::size_t i = 0; i < sim::kNumCpiCats; ++i) {
            if (!cpi->array[i].isString() ||
                !decodeU64(cpi->array[i].string, k.cpi.cat[i]))
                return false;
        }
        out.push_back(std::move(k));
    }
    return true;
}

std::string
encodeRunResult(const RunResult &res)
{
    std::ostringstream os;
    os << "{\"v\":\"" << kCellCodecVersion << "\",\"tax\":\""
       << sim::kCpiTaxonomyVersion << "\",\"robot\":";
    sim::json::writeString(os, res.robot);
    os << ",\"wall\":\"" << encodeU64(res.wallCycles) << "\""
       << ",\"work\":\"" << encodeU64(res.workCycles) << "\""
       << ",\"inst\":\"" << encodeU64(res.instructions) << "\""
       << ",\"bk\":";
    sim::json::writeString(os, res.bottleneckKernel);
    os << ",\"bs\":\"" << encodeDouble(res.bottleneckShare) << "\""
       << ",\"l1a\":\"" << encodeU64(res.l1Accesses) << "\""
       << ",\"l1m\":\"" << encodeU64(res.l1Misses) << "\""
       << ",\"l2m\":\"" << encodeU64(res.l2Misses) << "\""
       << ",\"l2a\":\"" << encodeU64(res.l2Accesses) << "\""
       << ",\"l3t\":\"" << encodeU64(res.l3Traffic) << "\""
       << ",\"pfi\":\"" << encodeU64(res.pfIssued) << "\""
       << ",\"pft\":\"" << encodeU64(res.pfHitsTimely) << "\""
       << ",\"pfl\":\"" << encodeU64(res.pfHitsLate) << "\""
       << ",\"udf\":\"" << encodeU64(res.udmFetchedBytes) << "\""
       << ",\"udu\":\"" << encodeU64(res.udmUsedBytes) << "\""
       << ",\"npi\":\"" << encodeU64(res.npuInvocations) << "\""
       << ",\"npc\":\"" << encodeU64(res.npuCommCycles) << "\""
       << ",\"kernels\":";
    encodeKernels(os, res.kernels);
    os << ",\"metrics\":{";
    bool first = true;
    for (const auto &[key, val] : res.metrics) {
        os << (first ? "" : ",");
        first = false;
        sim::json::writeString(os, key);
        os << ":\"" << encodeDouble(val) << "\"";
    }
    os << "}}";
    return os.str();
}

bool
decodeRunResult(const std::string &payload, RunResult &out,
                std::string *err)
{
    Value doc;
    std::string perr;
    if (!sim::json::parse(payload, doc, &perr)) {
        if (err)
            *err = "parse error: " + perr;
        return false;
    }
    if (!doc.isObject()) {
        if (err)
            *err = "payload is not an object";
        return false;
    }
    std::string version, taxonomy;
    if (!memberString(doc, "v", version, err) ||
        !memberString(doc, "tax", taxonomy, err))
        return false;
    if (version != std::to_string(kCellCodecVersion) ||
        taxonomy != std::to_string(sim::kCpiTaxonomyVersion)) {
        if (err && err->empty())
            *err = "foreign codec/taxonomy version " + version + "/" +
                   taxonomy;
        return false;
    }

    out = RunResult();
    if (!memberString(doc, "robot", out.robot, err) ||
        !memberU64(doc, "wall", out.wallCycles, err) ||
        !memberU64(doc, "work", out.workCycles, err) ||
        !memberU64(doc, "inst", out.instructions, err) ||
        !memberString(doc, "bk", out.bottleneckKernel, err) ||
        !memberDouble(doc, "bs", out.bottleneckShare, err) ||
        !memberU64(doc, "l1a", out.l1Accesses, err) ||
        !memberU64(doc, "l1m", out.l1Misses, err) ||
        !memberU64(doc, "l2m", out.l2Misses, err) ||
        !memberU64(doc, "l2a", out.l2Accesses, err) ||
        !memberU64(doc, "l3t", out.l3Traffic, err) ||
        !memberU64(doc, "pfi", out.pfIssued, err) ||
        !memberU64(doc, "pft", out.pfHitsTimely, err) ||
        !memberU64(doc, "pfl", out.pfHitsLate, err) ||
        !memberU64(doc, "udf", out.udmFetchedBytes, err) ||
        !memberU64(doc, "udu", out.udmUsedBytes, err) ||
        !memberU64(doc, "npi", out.npuInvocations, err) ||
        !memberU64(doc, "npc", out.npuCommCycles, err))
        return false;

    const Value *kernels = doc.find("kernels");
    if (!kernels || !decodeKernels(*kernels, out.kernels)) {
        if (err && err->empty())
            *err = "bad 'kernels'";
        return false;
    }
    const Value *metrics = doc.find("metrics");
    if (!metrics || !metrics->isObject()) {
        if (err && err->empty())
            *err = "bad 'metrics'";
        return false;
    }
    for (const auto &[key, val] : metrics->object) {
        double d = 0.0;
        if (!val.isString() || !decodeDouble(val.string, d)) {
            if (err && err->empty())
                *err = "bad metric '" + key + "'";
            return false;
        }
        out.metrics[key] = d;
    }
    return true;
}

std::string
describeStream(std::string_view robot, const MachineSpec &spec,
               const WorkloadOptions &opt)
{
    std::ostringstream os;
    os << "robot=" << robot
       // Machine knobs that select the code the robot runs.
       << ";lanes=" << spec.sys.core.vectorLanes << ";ovec=" << spec.ovec
       << ";npu=" << spec.npu << ";wt=" << spec.wtQueues
       // Workload identity.
       << ";tier=" << int(opt.tier)
       << ";scale=" << encodeDouble(opt.scale) << ";seed=" << opt.seed
       << ";nns=" << int(opt.nns) << "/" << opt.nnsExplicit
       << ";oriented=" << int(opt.oriented)
       << ";swnn=" << opt.softwareNeural;
    return os.str();
}

std::uint64_t
streamConfigHash(std::string_view robot, const MachineSpec &spec,
                 const WorkloadOptions &opt)
{
    return sim::fnv1a64(describeStream(robot, spec, opt));
}

std::string
describeCell(std::string_view robot, const MachineSpec &spec,
             const WorkloadOptions &opt, std::string_view salt)
{
    const sim::SysConfig &sys = spec.sys;
    std::ostringstream os;
    os << "codec=" << kCellCodecVersion
       << ";tax=" << sim::kCpiTaxonomyVersion << ";"
       << describeStream(robot, spec, opt)
       // Timing-only knobs: every remaining SysConfig field.
       << ";line=" << sys.lineBytes << ";l1=" << sys.l1Size << "/"
       << sys.l1Assoc << "/" << sys.l1Latency << ";l2=" << sys.l2Size
       << "/" << sys.l2Assoc << "/" << sys.l2Latency
       << ";l3=" << sys.l3Size << "/" << sys.l3Assoc << "/"
       << sys.l3Latency << ";dram=" << sys.dramLatency
       << ";issue=" << sys.core.issueWidth
       << ";overlap=" << sys.core.missOverlap
       << ";pf=" << int(sys.prefetcher) << ";fcp=" << sys.fcpEnabled
       << "/" << sys.fcpRegionBytes << "/" << sys.fcpXorBits << "/"
       << int(sys.fcpFunc) << "/" << sys.fcpAtL3
       << ";udm=" << sys.trackUdm
       // Fleet machine: always echoed, because replayFleet() raises
       // simCores itself, so a fleet cell's spec still says 1.
       << ";simcores=" << sys.simCores << ";uncore=" << sys.uncore.lineBytes
       << "/" << sys.uncore.l3Slices << "/" << sys.uncore.xbarHopLatency
       << "/" << sys.uncore.dramBanks << "/" << sys.uncore.dramRowBytes
       << "/" << sys.uncore.dramRowHitLatency << "/"
       << sys.uncore.dramRowMissLatency << "/"
       << sys.uncore.coherenceLatency
       // Tartan unit sizing and placement.
       << ";anl=" << spec.useAnl << "/" << spec.anlCfg.entries << "/"
       << spec.anlCfg.regionBytes << "/" << spec.anlCfg.lineBytes << "/"
       << spec.anlCfg.maxDegree << ";npucfg=" << spec.npuCfg.pes << "/"
       << spec.npuCfg.macDrainLatency << "/" << spec.npuCfg.commLatency
       << "/" << spec.npuCfg.coprocCommLatency << "/"
       << int(spec.npuCfg.placement);
    if (!salt.empty())
        os << ";salt=" << salt;
    return os.str();
}

std::uint64_t
cellConfigHash(std::string_view robot, const MachineSpec &spec,
               const WorkloadOptions &opt, std::string_view salt)
{
    return sim::fnv1a64(describeCell(robot, spec, opt, salt));
}

} // namespace tartan::workloads
