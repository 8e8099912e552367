/**
 * @file
 * TraceSession implementation: Chrome trace-event emission, epoch
 * sampling, per-PC attribution, and schema validation.
 */

#include "sim/trace.hh"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "sim/cpistack.hh"
#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace tartan::sim {

// ---------------------------------------------------------------------------
// TraceSession — event collection
// ---------------------------------------------------------------------------

TraceSession::TraceSession(TraceConfig cfg) : config(std::move(cfg))
{
    TARTAN_ASSERT(config.epochCycles > 0, "epochCycles must be positive");
    if (config.bench.empty())
        config.bench = "trace";
}

TraceSession::~TraceSession()
{
    if (!finalized)
        finalize();
}

std::uint32_t
TraceSession::intern(const std::string &name)
{
    const auto [it, added] =
        nameIds.try_emplace(name, std::uint32_t(names.size()));
    if (added)
        names.push_back(name);
    return it->second;
}

void
TraceSession::closeSpan(std::uint32_t name, std::uint32_t tid,
                        Cycles begin, Cycles end)
{
    if (end > begin)
        spans.push_back(Span{name, tid, begin, end});
}

void
TraceSession::kernelSwitch(const std::string &name, Cycles now)
{
    lastCycle = std::max(lastCycle, now);
    if (kernelOpen && name == names[openKernel])
        return;
    if (kernelOpen)
        closeSpan(openKernel, 0, openKernelSince, now);
    openKernel = intern(name);
    openKernelSince = now;
    kernelOpen = true;
}

void
TraceSession::phaseBegin(const std::string &name, Cycles now)
{
    lastCycle = std::max(lastCycle, now);
    phases.push_back(OpenPhase{intern(name), now});
}

void
TraceSession::phaseEnd(Cycles now)
{
    lastCycle = std::max(lastCycle, now);
    if (phases.empty()) {
        warn("trace: phaseEnd without a matching phaseBegin");
        return;
    }
    const OpenPhase p = phases.back();
    phases.pop_back();
    closeSpan(p.name, 1, p.since, now);
}

void
TraceSession::addProbe(const std::string &name,
                       const std::uint64_t *counter)
{
    TARTAN_ASSERT(counter, "addProbe requires a counter");
    TARTAN_ASSERT(std::none_of(probes.begin(), probes.end(),
                               [&](const Probe &p) { return p.name == name; }),
                  "trace: probe '%s' added twice", name.c_str());
    TARTAN_ASSERT(epochRows.empty(),
                  "trace: probe '%s' added after the first epoch sample",
                  name.c_str());
    probes.push_back(Probe{name, counter, *counter});
}

void
TraceSession::setInstructionProbe(const std::uint64_t *counter)
{
    TARTAN_ASSERT(counter, "setInstructionProbe requires a counter");
    instrProbe = counter;
    instrLast = *counter;
    ipcColumn = true;
}

void
TraceSession::detachProbes()
{
    flushEpoch(lastCycle);
    for (Probe &p : probes)
        p.counter = nullptr;
    instrProbe = nullptr;
}

void
TraceSession::flushEpoch(Cycles now)
{
    if (now > epochStart && (!probes.empty() || ipcColumn))
        sample(now);
}

void
TraceSession::sample(Cycles now)
{
    if (now <= epochStart)
        return;
    EpochRow row;
    row.begin = epochStart;
    row.end = now;
    for (Probe &p : probes) {
        const std::uint64_t cur = p.counter ? *p.counter : p.last;
        epochDeltas.push_back(cur - p.last);
        p.last = cur;
    }
    if (instrProbe) {
        const std::uint64_t cur = *instrProbe;
        row.ipc = double(cur - instrLast) / double(now - epochStart);
        instrLast = cur;
    }
    epochRows.push_back(row);
    epochStart = now;
}

void
TraceSession::pcAccess(PcId pc, MemLevel level, AccessType type)
{
    if (pc >= pcCounts.size())
        pcCounts.resize(std::size_t(pc) + 1);
    PcCounters &c = pcCounts[pc];
    if (type == AccessType::Store)
        ++c.stores;
    else
        ++c.loads;
    const auto idx = std::size_t(level);
    if (idx < std::size_t(MemLevel::NumLevels))
        ++c.byLevel[idx];
}

void
TraceSession::closeOpen(Cycles now)
{
    if (kernelOpen && now > openKernelSince) {
        closeSpan(openKernel, 0, openKernelSince, now);
        kernelOpen = false;
    }
    while (!phases.empty())
        phaseEnd(now);
    // Flush the partial last epoch so no tail activity is dropped.
    flushEpoch(now);
}

// ---------------------------------------------------------------------------
// TraceSession — per-PC profile
// ---------------------------------------------------------------------------

std::vector<std::pair<PcId, const TraceSession::PcCounters *>>
TraceSession::topSites() const
{
    std::vector<std::pair<PcId, const PcCounters *>> rows;
    for (std::size_t pc = 0; pc < pcCounts.size(); ++pc)
        if (pcCounts[pc].accesses() > 0)
            rows.emplace_back(PcId(pc), &pcCounts[pc]);
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        if (a.second->missesBeyondL1() != b.second->missesBeyondL1())
            return a.second->missesBeyondL1() > b.second->missesBeyondL1();
        if (a.second->accesses() != b.second->accesses())
            return a.second->accesses() > b.second->accesses();
        return a.first < b.first;
    });
    if (rows.size() > kPcTopN)
        rows.resize(kPcTopN);
    return rows;
}

// ---------------------------------------------------------------------------
// TraceSession — output
// ---------------------------------------------------------------------------

std::string
TraceConfig::filePath(const std::string &suffix) const
{
    std::string dir = this->dir;
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    std::string name = "TRACE_" + bench;
    if (!run.empty())
        name += "_" + run;
    return dir + name + suffix;
}

namespace {

/** The entry of @p sites naming @p pc, or null. */
const PcSite *
findSite(std::span<const PcSite> sites, PcId pc)
{
    for (const PcSite &site : sites)
        if (site.pc == pc)
            return &site;
    return nullptr;
}

/** Emit the shared fields of one trace event (ph, ts, pid, tid). */
void
eventHead(std::ostream &os, const char *ph, Cycles ts, std::uint32_t tid)
{
    os << "{\"ph\": \"" << ph << "\", \"ts\": " << ts
       << ", \"pid\": 0, \"tid\": " << tid;
}

} // namespace

void
TraceSession::writeTraceJson(std::ostream &os)
{
    closeOpen(lastCycle);

    os << "{\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {\"bench\": ";
    json::writeString(os, config.bench);
    os << ", \"run\": ";
    json::writeString(os, config.run);
    os << ", \"epochCycles\": " << config.epochCycles
       << ", \"timeUnit\": \"1 us rendered == 1 simulated cycle\"},\n";

    os << "\"traceEvents\": [";
    bool first = true;
    auto sep = [&] {
        os << (first ? "\n" : ",\n");
        first = false;
    };

    // Track-name metadata so Perfetto labels the lanes.
    const std::pair<std::uint32_t, const char *> tracks[] = {
        {0, "kernels"}, {1, "roi"}};
    for (const auto &[tid, label] : tracks) {
        sep();
        os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, "
              "\"tid\": "
           << tid << ", \"args\": {\"name\": \"" << label << "\"}}";
    }

    for (const Span &span : spans) {
        sep();
        eventHead(os, "X", span.begin, span.tid);
        os << ", \"dur\": " << (span.end - span.begin) << ", \"cat\": \""
           << (span.tid == 0 ? "kernel" : "roi") << "\", \"name\": ";
        json::writeString(os, names[span.name]);
        os << "}";
    }

    // Counter tracks: one series per probe, one point per epoch,
    // stamped at the epoch end.
    const std::uint64_t *delta = epochDeltas.data();
    for (const EpochRow &row : epochRows) {
        for (const Probe &probe : probes) {
            sep();
            eventHead(os, "C", row.end, 0);
            os << ", \"name\": ";
            json::writeString(os, probe.name);
            os << ", \"args\": {\"delta\": " << *delta++ << "}}";
        }
        if (ipcColumn) {
            sep();
            eventHead(os, "C", row.end, 0);
            os << ", \"name\": \"ipc\", \"args\": {\"value\": ";
            json::writeNumber(os, row.ipc);
            os << "}}";
        }
    }
    os << (first ? "" : "\n") << "],\n";

    // The per-PC top-N miss table (ignored by trace viewers, read by
    // the schema checker and humans).
    os << "\"pcProfile\": [";
    first = true;
    for (const auto &[pc, counters] : topSites()) {
        const PcSite *site = findSite(sites, pc);
        sep();
        os << "{\"pc\": " << pc << ", \"name\": ";
        json::writeString(os, site ? std::string(site->name)
                                   : "pc" + std::to_string(pc));
        os << ", \"structure\": ";
        json::writeString(os, site ? site->structure : std::string_view());
        os << ", \"loads\": " << counters->loads
           << ", \"stores\": " << counters->stores
           << ", \"l1Hits\": " << counters->byLevel[0]
           << ", \"l2Hits\": " << counters->byLevel[1]
           << ", \"l3Hits\": " << counters->byLevel[2]
           << ", \"dram\": " << counters->byLevel[3]
           << ", \"missesBeyondL1\": " << counters->missesBeyondL1()
           << "}";
    }
    os << (first ? "" : "\n") << "]\n}\n";
}

void
TraceSession::writeEpochsJson(std::ostream &os) const
{
    os << "{\n  \"bench\": ";
    json::writeString(os, config.bench);
    os << ",\n  \"run\": ";
    json::writeString(os, config.run);
    os << ",\n  \"epochCycles\": " << config.epochCycles
       << ",\n  \"probes\": [";
    bool first = true;
    for (const Probe &probe : probes) {
        os << (first ? "" : ", ");
        first = false;
        json::writeString(os, probe.name);
    }
    os << "],\n  \"epochs\": [";
    first = true;
    const std::uint64_t *delta = epochDeltas.data();
    for (const EpochRow &row : epochRows) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"begin\": " << row.begin << ", \"end\": " << row.end
           << ", \"ipc\": ";
        json::writeNumber(os, row.ipc);
        os << ", \"deltas\": {";
        for (std::size_t p = 0; p < probes.size(); ++p) {
            os << (p ? ", " : "");
            json::writeString(os, probes[p].name);
            os << ": " << *delta++;
        }
        os << "}}";
    }
    os << (first ? "" : "\n  ") << "]\n}\n";
}

bool
TraceSession::finalize()
{
    if (finalized)
        return true;
    finalized = true;
    closeOpen(lastCycle);
    // Rename-into-place: concurrent RunPool workers finalizing their
    // sessions can never interleave bytes in a shared output directory.
    const bool trace_ok = json::writeFileDurable(
        tracePath(), [this](std::ostream &os) { writeTraceJson(os); },
        "trace");
    const bool epochs_ok = json::writeFileDurable(
        epochsPath(), [this](std::ostream &os) { writeEpochsJson(os); },
        "trace");
    return trace_ok && epochs_ok;
}

std::optional<TraceConfig>
TraceConfig::fromEnv(const std::string &bench, const std::string &run,
                     const RunEnv &env)
{
    // RunEnv is a one-shot snapshot: workers can build sessions without
    // racing on getenv, and the directory cannot change mid-sweep.
    if (env.traceDir.empty())
        return std::nullopt;
    TraceConfig cfg;
    cfg.dir = env.traceDir;
    cfg.bench = bench;
    cfg.run = run;
    if (env.traceEpochCycles > 0)
        cfg.epochCycles = env.traceEpochCycles;
    return cfg;
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

namespace {

bool
schemaFail(std::string *err, const std::string &msg)
{
    if (err && err->empty())
        *err = msg;
    return false;
}

bool
requireNumber(const json::Value &obj, const char *key, std::string *err,
              const std::string &where)
{
    const json::Value *v = obj.find(key);
    if (!v || !v->isNumber())
        return schemaFail(err, where + "." + key + " missing or not a "
                                                   "number");
    return true;
}

} // namespace

bool
validateTraceJson(std::string_view text, std::string *err)
{
    json::Value doc;
    std::string perr;
    if (!json::parse(text, doc, &perr))
        return schemaFail(err, "parse error: " + perr);
    if (!doc.isObject())
        return schemaFail(err, "document is not an object");

    const json::Value *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return schemaFail(err, "missing or invalid 'traceEvents'");
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const json::Value &e = events->array[i];
        const std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!e.isObject())
            return schemaFail(err, where + " is not an object");
        const json::Value *ph = e.find("ph");
        if (!ph || !ph->isString() || ph->string.empty())
            return schemaFail(err, where + ".ph missing");
        const json::Value *name = e.find("name");
        if (!name || !name->isString() || name->string.empty())
            return schemaFail(err, where + ".name missing");
        if (ph->string == "M")
            continue;  // metadata events carry no timestamp
        if (!requireNumber(e, "ts", err, where))
            return false;
        if (ph->string == "X" && !requireNumber(e, "dur", err, where))
            return false;
        if (ph->string == "C") {
            const json::Value *args = e.find("args");
            if (!args || !args->isObject() || args->object.empty())
                return schemaFail(err, where + ".args missing");
            for (const auto &[key, val] : args->object)
                if (!val.isNumber())
                    return schemaFail(err, where + ".args." + key +
                                               " is not a number");
        }
    }

    const json::Value *profile = doc.find("pcProfile");
    if (!profile || !profile->isArray())
        return schemaFail(err, "missing or invalid 'pcProfile'");
    for (std::size_t i = 0; i < profile->array.size(); ++i) {
        const json::Value &row = profile->array[i];
        const std::string where = "pcProfile[" + std::to_string(i) + "]";
        if (!row.isObject())
            return schemaFail(err, where + " is not an object");
        const json::Value *name = row.find("name");
        if (!name || !name->isString() || name->string.empty())
            return schemaFail(err, where + ".name missing");
        for (const char *key : {"pc", "loads", "stores", "l1Hits",
                                "l2Hits", "l3Hits", "dram",
                                "missesBeyondL1"})
            if (!requireNumber(row, key, err, where))
                return false;
    }
    return true;
}

bool
validateEpochsJson(std::string_view text, std::string *err)
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
    if (!requireNumber(doc, "epochCycles", err, "document"))
        return false;

    const json::Value *probes = doc.find("probes");
    if (!probes || !probes->isArray())
        return schemaFail(err, "missing or invalid 'probes'");
    for (const json::Value &p : probes->array) {
        if (!p.isString())
            return schemaFail(err, "probes[] entry is not a string");
        // cpi.* probes are namespaced onto the compiled taxonomy: a
        // payload sampling a category this build does not know about
        // must be rejected rather than silently passed through.
        const std::string &name = p.string;
        if (name.rfind("cpi.", 0) == 0 &&
            cpiCatFromName(name.substr(4)) == CpiCat::NumCats)
            return schemaFail(err, "probes[] has unknown CPI category '" +
                                       name + "'");
    }

    const json::Value *epochs = doc.find("epochs");
    if (!epochs || !epochs->isArray())
        return schemaFail(err, "missing or invalid 'epochs'");
    for (std::size_t i = 0; i < epochs->array.size(); ++i) {
        const json::Value &row = epochs->array[i];
        const std::string where = "epochs[" + std::to_string(i) + "]";
        if (!row.isObject())
            return schemaFail(err, where + " is not an object");
        for (const char *key : {"begin", "end", "ipc"})
            if (!requireNumber(row, key, err, where))
                return false;
        const json::Value *deltas = row.find("deltas");
        if (!deltas || !deltas->isObject())
            return schemaFail(err, where + ".deltas missing");
        if (deltas->object.size() != probes->array.size())
            return schemaFail(err, where + ".deltas size != probes size");
        for (const auto &[key, val] : deltas->object)
            if (!val.isNumber())
                return schemaFail(err, where + ".deltas." + key +
                                           " is not a number");
    }
    return true;
}

} // namespace tartan::sim
