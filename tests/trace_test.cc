/**
 * @file
 * Unit tests for the time-resolved tracing subsystem: the robotics
 * PcSite table, kernel/phase timelines, the epoch sampler, per-PC
 * attribution, the trace/epochs schema validators, and the
 * no-observer-effect guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include "robotics/pc_names.hh"
#include "sim/json.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/cellcodec.hh"
#include "workloads/robots.hh"

namespace {

using namespace tartan::sim;

/** Session config writing into the test CWD with short (SSO) names. */
TraceConfig
testConfig(const char *run, Cycles epoch_cycles = 100000)
{
    TraceConfig cfg;
    cfg.bench = "tt";
    cfg.run = run;
    cfg.epochCycles = epoch_cycles;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------------
// Site table
// ---------------------------------------------------------------------------

TEST(PcSites, RoboticsTableIsWellFormed)
{
    const std::span<const PcSite> sites = tartan::robotics::pcSites();
    EXPECT_GT(sites.size(), 10u);
    std::set<PcId> pcs;
    for (const PcSite &site : sites) {
        const std::string name(site.name);
        EXPECT_TRUE(pcs.insert(site.pc).second) << "duplicate pc " << name;
        // Names must be legal stats-group keys (no '/' or '"').
        EXPECT_FALSE(name.empty());
        EXPECT_EQ(name.find('/'), std::string::npos) << name;
        EXPECT_EQ(name.find('"'), std::string::npos) << name;
        EXPECT_FALSE(site.structure.empty()) << name;
    }
}

// ---------------------------------------------------------------------------
// Kernel/phase timeline
// ---------------------------------------------------------------------------

TEST(TraceTimeline, KernelSpansCoalesceAndClose)
{
    TraceSession session(testConfig("ktl"));
    session.kernelSwitch("raycast", 0);
    session.kernelSwitch("raycast", 10);   // same kernel: no span yet
    EXPECT_EQ(session.events(), 0u);
    session.kernelSwitch("icp", 40);       // closes raycast [0, 40)
    EXPECT_EQ(session.events(), 1u);
    session.finalize();                    // closes icp [40, 40): empty

    std::string err;
    const std::string text = slurp(session.tracePath());
    ASSERT_TRUE(validateTraceJson(text, &err)) << err;

    json::Value doc;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool found = false;
    for (const json::Value &e : events->array) {
        const json::Value *name = e.find("name");
        const json::Value *ph = e.find("ph");
        if (ph && ph->string == "X" && name && name->string == "raycast") {
            found = true;
            EXPECT_EQ(e.find("ts")->number, 0.0);
            EXPECT_EQ(e.find("dur")->number, 40.0);
        }
    }
    EXPECT_TRUE(found) << "raycast span missing from " << session.tracePath();
    std::remove(session.tracePath().c_str());
    std::remove(session.epochsPath().c_str());
}

TEST(TraceTimeline, PhasesNestAndUnmatchedEndIsIgnored)
{
    TraceSession session(testConfig("roi"));
    session.phaseBegin("frame 0", 0);
    session.phaseBegin("icp", 5);
    session.phaseEnd(25);  // icp [5, 25)
    session.phaseEnd(30);  // frame 0 [0, 30)
    session.phaseEnd(31);  // unmatched: warned and dropped
    EXPECT_EQ(session.events(), 2u);

    // Nesting has no depth limit: 20 nested phases become 20 spans.
    for (int d = 0; d < 20; ++d)
        session.phaseBegin("depth " + std::to_string(d), 100 + d);
    for (int d = 0; d < 20; ++d)
        session.phaseEnd(200 + d);
    EXPECT_EQ(session.events(), 22u);
    session.finalize();

    std::string err;
    const std::string text = slurp(session.tracePath());
    ASSERT_TRUE(validateTraceJson(text, &err)) << err;
    json::Value doc;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    std::set<std::string> roi;
    for (const json::Value &e : doc.find("traceEvents")->array)
        if (e.find("ph")->string == "X" && e.find("cat")->string == "roi")
            roi.insert(e.find("name")->string);
    EXPECT_EQ(roi.size(), 22u);
    for (int d = 0; d < 20; ++d)
        EXPECT_EQ(roi.count("depth " + std::to_string(d)), 1u) << d;
    std::remove(session.tracePath().c_str());
    std::remove(session.epochsPath().c_str());
}

TEST(TraceTimeline, DanglingPhasesClosedAtFinalize)
{
    // 60-character names are stored whole, not truncated.
    const std::string kernel = "kernel." + std::string(53, 'k');
    const std::string phase = "phase." + std::string(54, 'p');
    ASSERT_EQ(kernel.size(), 60u);
    ASSERT_EQ(phase.size(), 60u);

    auto session = std::make_unique<TraceSession>(testConfig("dgl"));
    session->kernelSwitch(kernel, 0);
    session->phaseBegin(phase, 0);
    session->tick(500);
    session->finalize();
    // Both the open kernel and the open phase became spans at cycle 500.
    EXPECT_EQ(session->events(), 2u);

    std::string err;
    json::Value doc;
    ASSERT_TRUE(json::parse(slurp(session->tracePath()), doc, &err)) << err;
    std::set<std::pair<std::string, std::string>> spans;
    for (const json::Value &e : doc.find("traceEvents")->array)
        if (e.find("ph")->string == "X")
            spans.emplace(e.find("cat")->string, e.find("name")->string);
    EXPECT_EQ(spans.count({"kernel", kernel}), 1u);
    EXPECT_EQ(spans.count({"roi", phase}), 1u);
    std::remove(session->tracePath().c_str());
    std::remove(session->epochsPath().c_str());
}

// ---------------------------------------------------------------------------
// Epoch sampler
// ---------------------------------------------------------------------------

TEST(TraceEpochs, SamplerRecordsPerEpochDeltas)
{
    TraceSession session(testConfig("epo", /*epoch_cycles=*/100));
    SysConfig cfg;
    cfg.trace = &session;
    System sys(cfg);
    auto &core = sys.core();

    // The sampler observes time at addCycles granularity, so advance in
    // single-cycle steps: 1000 cycles at issue width 4 -> 10 full epochs.
    for (int i = 0; i < 1000; ++i)
        core.exec(4);
    EXPECT_EQ(session.epochs(), 10u);
    core.exec(100);   // 25 more cycles: partial epoch, flushed at finalize
    session.finalize();
    EXPECT_EQ(session.epochs(), 11u);

    std::string err;
    const std::string text = slurp(session.epochsPath());
    ASSERT_TRUE(validateEpochsJson(text, &err)) << err;

    // IPC of a pure-compute run at issue width 4 is 4.0 per epoch.
    json::Value doc;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    const json::Value *epochs = doc.find("epochs");
    ASSERT_NE(epochs, nullptr);
    ASSERT_EQ(epochs->array.size(), 11u);
    for (const json::Value &row : epochs->array)
        EXPECT_DOUBLE_EQ(row.find("ipc")->number, 4.0);
    std::remove(session.tracePath().c_str());
    std::remove(session.epochsPath().c_str());
}

TEST(TraceEpochs, DeltasSumToCounterTotals)
{
    TraceSession session(testConfig("sum", /*epoch_cycles=*/50));
    SysConfig cfg;
    cfg.trace = &session;
    System sys(cfg);
    auto &core = sys.core();

    // 40 probes beyond System's own: the probe list has no cap.
    constexpr int kExtra = 40;
    std::uint64_t extra[kExtra] = {};
    for (int k = 0; k < kExtra; ++k)
        session.addProbe("extra." + std::to_string(k), &extra[k]);

    // Mix of misses and compute spread over many epochs.
    for (int i = 0; i < 40; ++i) {
        for (int k = 0; k < kExtra; ++k)
            extra[k] += std::uint64_t(k);
        core.load(0x100000 + i * 4096, /*pc=*/4);
        core.exec(200);
    }
    session.finalize();

    std::string err;
    const std::string text = slurp(session.epochsPath());
    ASSERT_TRUE(validateEpochsJson(text, &err)) << err;
    json::Value doc;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    double l1_sum = 0.0;
    double extra_sum[kExtra] = {};
    for (const json::Value &row : doc.find("epochs")->array) {
        l1_sum += row.find("deltas")->find("l1Misses")->number;
        for (int k = 0; k < kExtra; ++k) {
            const json::Value *d =
                row.find("deltas")->find("extra." + std::to_string(k));
            ASSERT_NE(d, nullptr) << "probe extra." << k << " missing";
            extra_sum[k] += d->number;
        }
    }
    EXPECT_EQ(std::uint64_t(l1_sum), sys.mem().l1().stats().misses);
    for (int k = 0; k < kExtra; ++k)
        EXPECT_EQ(std::uint64_t(extra_sum[k]), extra[k]) << k;
    std::remove(session.tracePath().c_str());
    std::remove(session.epochsPath().c_str());
}

// ---------------------------------------------------------------------------
// Per-PC attribution
// ---------------------------------------------------------------------------

TEST(TracePcProfile, AttributesAccessesPerLevelAndRanksByMisses)
{
    static constexpr PcSite kSites[] = {
        {7, "hot.site", "pointer chase"},
        {9, "cold.site", "stack scratch"}};

    TraceSession session(testConfig("pcp"));
    session.setSites(kSites);
    SysConfig cfg;
    cfg.trace = &session;
    System sys(cfg);
    auto &mem = sys.mem();

    // pc 7: two DRAM misses + one L1 hit; pc 9: one L1-resident store;
    // pcs 8, 255 and 300 (not in the table): one L1 hit each.
    mem.access(0x10000, AccessType::Load, 4, 7, 0);
    mem.access(0x50000, AccessType::Load, 4, 7, 0);
    mem.access(0x10000, AccessType::Load, 4, 7, 0);
    mem.access(0x10004, AccessType::Store, 4, 9, 0);
    mem.access(0x10008, AccessType::Load, 4, 8, 0);
    mem.access(0x1000c, AccessType::Load, 4, 300, 0);
    mem.access(0x10010, AccessType::Load, 4, 255, 0);

    session.finalize();
    std::string err;
    const std::string text = slurp(session.tracePath());
    ASSERT_TRUE(validateTraceJson(text, &err)) << err;
    json::Value doc;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    const json::Value *profile = doc.find("pcProfile");
    ASSERT_NE(profile, nullptr);
    ASSERT_EQ(profile->array.size(), 5u);
    // Ranked by misses beyond L1: the pointer-chasing site leads.
    EXPECT_EQ(profile->array[0].find("name")->string, "hot.site");
    EXPECT_EQ(profile->array[0].find("structure")->string, "pointer chase");
    EXPECT_EQ(profile->array[0].find("dram")->number, 2.0);
    EXPECT_EQ(profile->array[0].find("l1Hits")->number, 1.0);
    EXPECT_EQ(profile->array[0].find("missesBeyondL1")->number, 2.0);
    // The one-access sites tie on misses and accesses: pc order.
    EXPECT_EQ(profile->array[1].find("name")->string, "pc8");
    EXPECT_EQ(profile->array[1].find("structure")->string, "");
    EXPECT_EQ(profile->array[1].find("l1Hits")->number, 1.0);
    EXPECT_EQ(profile->array[2].find("name")->string, "cold.site");
    EXPECT_EQ(profile->array[2].find("stores")->number, 1.0);
    // Large PcIds get rows of their own.
    EXPECT_EQ(profile->array[3].find("name")->string, "pc255");
    EXPECT_EQ(profile->array[3].find("loads")->number, 1.0);
    EXPECT_EQ(profile->array[4].find("name")->string, "pc300");
    EXPECT_EQ(profile->array[4].find("pc")->number, 300.0);
    EXPECT_EQ(profile->array[4].find("loads")->number, 1.0);
    std::remove(session.tracePath().c_str());
    std::remove(session.epochsPath().c_str());
}

// ---------------------------------------------------------------------------
// Schema validators (negative cases)
// ---------------------------------------------------------------------------

TEST(TraceValidate, RejectsMalformedTraceDocuments)
{
    std::string err;
    EXPECT_FALSE(validateTraceJson("not json", &err));
    EXPECT_FALSE(validateTraceJson("{}", &err));
    // Event without a ph.
    EXPECT_FALSE(validateTraceJson(
        R"({"traceEvents": [{"name": "x", "ts": 0}], "pcProfile": []})",
        &err));
    // Complete event without a dur.
    EXPECT_FALSE(validateTraceJson(
        R"({"traceEvents": [{"ph": "X", "name": "x", "ts": 0}],
            "pcProfile": []})",
        &err));
    // Counter event with a non-numeric arg.
    EXPECT_FALSE(validateTraceJson(
        R"({"traceEvents": [{"ph": "C", "name": "c", "ts": 0,
                             "args": {"v": "high"}}], "pcProfile": []})",
        &err));
    // Profile row without the numeric fields.
    EXPECT_FALSE(validateTraceJson(
        R"({"traceEvents": [], "pcProfile": [{"name": "site"}]})", &err));
    // A minimal valid document passes.
    EXPECT_TRUE(validateTraceJson(
        R"({"traceEvents": [{"ph": "M", "name": "thread_name",
                             "args": {"name": "kernels"}}],
            "pcProfile": []})",
        &err))
        << err;
}

TEST(TraceValidate, RejectsMalformedEpochDocuments)
{
    std::string err;
    EXPECT_FALSE(validateEpochsJson("{}", &err));
    // Delta block not matching the probe list.
    EXPECT_FALSE(validateEpochsJson(
        R"({"bench": "b", "epochCycles": 10, "probes": ["a", "b"],
            "epochs": [{"begin": 0, "end": 10, "ipc": 1.0,
                        "deltas": {"a": 1}}]})",
        &err));
    EXPECT_TRUE(validateEpochsJson(
        R"({"bench": "b", "epochCycles": 10, "probes": ["a"],
            "epochs": [{"begin": 0, "end": 10, "ipc": 1.0,
                        "deltas": {"a": 1}}]})",
        &err))
        << err;
}

// ---------------------------------------------------------------------------
// fromEnv
// ---------------------------------------------------------------------------

TEST(TraceEnv, FromEnvHonoursDirectoryAndEpochOverride)
{
    // The process-wide RunEnv is a one-shot snapshot, so the test
    // parses a fresh RunEnv after each environment change and passes it
    // to fromEnv in place of the snapshot.
    unsetenv("TARTAN_TRACE");
    EXPECT_EQ(TraceSession::fromEnv("b", "r",
                                    tartan::sim::RunEnv::parse()),
              nullptr);

    setenv("TARTAN_TRACE", "trace_env_out", 1);
    setenv("TARTAN_TRACE_EPOCH", "12345", 1);
    auto session =
        TraceSession::fromEnv("b", "r", tartan::sim::RunEnv::parse());
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->params().epochCycles, 12345u);
    EXPECT_EQ(session->tracePath(), "trace_env_out/TRACE_b_r.json");
    EXPECT_EQ(session->epochsPath(),
              "trace_env_out/TRACE_b_r_epochs.json");
    unsetenv("TARTAN_TRACE");
    unsetenv("TARTAN_TRACE_EPOCH");
    session->finalize();
    std::remove(session->tracePath().c_str());
    std::remove(session->epochsPath().c_str());
}

// ---------------------------------------------------------------------------
// Observer effect
// ---------------------------------------------------------------------------

using tartan::workloads::MachineSpec;
using tartan::workloads::RunResult;
using tartan::workloads::WorkloadOptions;

/** Timing summary of one scripted run on a fixed address stream. */
struct ScriptStats {
    Cycles cycles;
    std::uint64_t instructions;
    std::uint64_t l1Misses;
    std::uint64_t l2Misses;
};

/**
 * Drive a bare System (no workload, no address translation) through a
 * deterministic mix of kernels, phases, loads, stores and compute on
 * literal addresses, so a traced/untraced comparison isolates the hooks
 * themselves.
 */
ScriptStats
driveScript(TraceSession *trace)
{
    SysConfig cfg;
    cfg.trace = trace;
    System sys(cfg);
    auto &core = sys.core();
    const std::uint32_t alpha = core.registerKernel("alpha");
    const std::uint32_t beta = core.registerKernel("beta");

    for (int rep = 0; rep < 50; ++rep) {
        core.phaseBegin("frame");
        {
            ScopedKernel sk(core, alpha);
            for (int i = 0; i < 64; ++i)
                core.load(0x40000 + ((rep * 64 + i) * 64) % 262144,
                          /*pc=*/7, MemDep::Dependent);
            core.exec(123);
        }
        {
            ScopedKernel sk(core, beta);
            for (int i = 0; i < 16; ++i)
                core.store(0x900000 + i * 32, /*pc=*/9);
            core.exec(37);
        }
        core.phaseEnd();
    }
    return ScriptStats{core.cycles(), core.instructions(),
                       sys.mem().l1().stats().misses,
                       sys.mem().l2().stats().misses};
}

TEST(TraceObserver, AttachingASessionDoesNotPerturbTiming)
{
    const ScriptStats plain = driveScript(nullptr);

    auto session =
        std::make_unique<TraceSession>(testConfig("obs", /*epoch=*/500));
    const ScriptStats traced = driveScript(session.get());
    EXPECT_GT(session->events(), 0u);
    EXPECT_GT(session->epochs(), 0u);

    // Bit-identical timing and cache behaviour: the hooks observe the
    // model, they never feed back into it.
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.instructions, plain.instructions);
    EXPECT_EQ(traced.l1Misses, plain.l1Misses);
    EXPECT_EQ(traced.l2Misses, plain.l2Misses);

    // A retried cell drives a second System through the same session:
    // its probes rebind the existing columns instead of adding more.
    const ScriptStats retried = driveScript(session.get());
    EXPECT_EQ(retried.cycles, plain.cycles);

    const std::string trace_path = session->tracePath();
    const std::string epochs_path = session->epochsPath();
    session.reset();  // finalize + write
    std::string err;
    EXPECT_TRUE(validateTraceJson(slurp(trace_path), &err)) << err;
    const std::string epochs = slurp(epochs_path);
    EXPECT_TRUE(validateEpochsJson(epochs, &err)) << err;
    json::Value doc;
    ASSERT_TRUE(json::parse(epochs, doc, &err)) << err;
    std::set<std::string> probes;
    for (const json::Value &p : doc.find("probes")->array)
        EXPECT_TRUE(probes.insert(p.string).second) << p.string;
    std::remove(trace_path.c_str());
    std::remove(epochs_path.c_str());
}

TEST(TraceObserver, TracedWorkloadMatchesUntracedAndNamesEverySite)
{
    // Workloads simulate in the deterministic address space, so host
    // heap layout (the session object included) moves no simulated
    // address: a traced run's payload equals the untraced run's byte
    // for byte.
    WorkloadOptions opt;
    opt.scale = 0.5;
    const RunResult plain =
        tartan::workloads::runHomeBot(MachineSpec::baseline(), opt);

    auto session = std::make_unique<TraceSession>(testConfig("wkl"));
    opt.trace = session.get();
    const RunResult traced =
        tartan::workloads::runHomeBot(MachineSpec::baseline(), opt);
    EXPECT_GT(session->events(), 0u);
    EXPECT_GT(session->epochs(), 0u);
    EXPECT_EQ(tartan::workloads::encodeRunResult(traced),
              tartan::workloads::encodeRunResult(plain));

    const std::string trace_path = session->tracePath();
    const std::string epochs_path = session->epochsPath();
    session.reset();
    std::string err;
    const std::string text = slurp(trace_path);
    EXPECT_TRUE(validateTraceJson(text, &err)) << err;
    EXPECT_TRUE(validateEpochsJson(slurp(epochs_path), &err)) << err;

    // Machine handed the session the robotics table: every profiled
    // site is named from it, none falls back to "pc<N>".
    json::Value doc;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    const json::Value *profile = doc.find("pcProfile");
    ASSERT_NE(profile, nullptr);
    EXPECT_FALSE(profile->array.empty());
    const std::span<const PcSite> sites = tartan::robotics::pcSites();
    for (const json::Value &row : profile->array) {
        const auto pc = PcId(row.find("pc")->number);
        const auto site =
            std::find_if(sites.begin(), sites.end(),
                         [pc](const PcSite &s) { return s.pc == pc; });
        ASSERT_NE(site, sites.end()) << "unnamed pc " << pc;
        EXPECT_EQ(row.find("name")->string, site->name);
        EXPECT_EQ(row.find("structure")->string, site->structure);
    }
    std::remove(trace_path.c_str());
    std::remove(epochs_path.c_str());
}

} // namespace
