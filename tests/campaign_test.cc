/**
 * @file
 * Campaign-resilience layer: the crash-tolerance guarantees the bench
 * drivers rely on. The tests pin down (1) the cell codec's exactness —
 * decode(encode(x)) bit-identical, including nan/inf metrics and
 * full-width uint64 counters; (2) the result cache's verify-on-load —
 * corrupt and truncated entries are evicted and re-simulated, a
 * foreign schema is never served, hits skip simulation and return
 * identical bytes (the resume store is a second result cache, so the
 * same policy covers resumed sweeps); (3) the retry/quarantine
 * machinery's determinism — identical outcomes with a serial and a
 * parallel pool, timeouts classified by the watchdog, all failures of
 * a sweep collected with cell identity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hh"
#include "sim/campaign.hh"
#include "sim/capture.hh"
#include "sim/json.hh"
#include "sim/result_cache.hh"
#include "sim/runpool.hh"
#include "sim/watchdog.hh"
#include "workloads/cellcodec.hh"
#include "workloads/common.hh"
#include "workloads/replay.hh"

namespace fs = std::filesystem;

using tartan::sim::CampaignConfig;
using tartan::sim::CampaignRunner;
using tartan::sim::CellOutcome;
using tartan::sim::CellSpec;
using tartan::sim::ResultCache;
using tartan::sim::RunPool;
using tartan::workloads::MachineSpec;
using tartan::workloads::RunResult;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;

namespace {

/** A fresh, empty scratch directory under the test temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("campaign_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

/** Bit-level double equality (distinguishes -0.0, compares NaNs). */
bool
sameBits(double a, double b)
{
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof ba);
    std::memcpy(&bb, &b, sizeof bb);
    return ba == bb;
}

/** A RunResult with every field populated, including hostile values. */
RunResult
sampleResult()
{
    RunResult res;
    res.robot = "TestBot";
    res.wallCycles = 123456789;
    res.workCycles = 98765432101234ull;
    res.instructions = std::numeric_limits<std::uint64_t>::max();
    res.bottleneckKernel = "raycast";
    res.bottleneckShare = 1.0 / 3.0;
    res.l1Accesses = (1ull << 53) + 1; // not representable as a double
    res.l1Misses = 17;
    res.l2Misses = 0;
    res.l2Accesses = 42;
    res.l3Traffic = 1ull << 40;
    res.pfIssued = 7;
    res.pfHitsTimely = 6;
    res.pfHitsLate = 1;
    res.udmFetchedBytes = 4096;
    res.udmUsedBytes = 512;
    res.npuInvocations = 3;
    res.npuCommCycles = 99;

    tartan::sim::KernelCounters k;
    k.name = "kernel \"quoted\"\tand\ttabbed";
    k.cycles = 1000;
    k.memStallCycles = 250;
    k.instructions = 800;
    for (std::size_t c = 0; c < tartan::sim::kNumCpiCats; ++c)
        k.cpi.cat[c] = tartan::sim::Cycles(c * 11);
    res.kernels.push_back(k);
    k.name = "plain";
    res.kernels.push_back(k);

    res.metrics["planCost"] = 2.5000000000000004;
    res.metrics["ekfError"] = std::nan("");
    res.metrics["blownUp"] = HUGE_VAL;
    res.metrics["negInf"] = -HUGE_VAL;
    res.metrics["negZero"] = -0.0;
    res.metrics["denormal"] = std::numeric_limits<double>::denorm_min();
    return res;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.robot, b.robot);
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.workCycles, b.workCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.bottleneckKernel, b.bottleneckKernel);
    EXPECT_TRUE(sameBits(a.bottleneckShare, b.bottleneckShare));
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l3Traffic, b.l3Traffic);
    EXPECT_EQ(a.pfIssued, b.pfIssued);
    EXPECT_EQ(a.pfHitsTimely, b.pfHitsTimely);
    EXPECT_EQ(a.pfHitsLate, b.pfHitsLate);
    EXPECT_EQ(a.udmFetchedBytes, b.udmFetchedBytes);
    EXPECT_EQ(a.udmUsedBytes, b.udmUsedBytes);
    EXPECT_EQ(a.npuInvocations, b.npuInvocations);
    EXPECT_EQ(a.npuCommCycles, b.npuCommCycles);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].name, b.kernels[i].name);
        EXPECT_EQ(a.kernels[i].cycles, b.kernels[i].cycles);
        EXPECT_EQ(a.kernels[i].memStallCycles,
                  b.kernels[i].memStallCycles);
        EXPECT_EQ(a.kernels[i].instructions, b.kernels[i].instructions);
        for (std::size_t c = 0; c < tartan::sim::kNumCpiCats; ++c)
            EXPECT_EQ(a.kernels[i].cpi.cat[c], b.kernels[i].cpi.cat[c]);
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[key, val] : a.metrics) {
        const auto it = b.metrics.find(key);
        ASSERT_NE(it, b.metrics.end()) << key;
        EXPECT_TRUE(sameBits(val, it->second)) << key;
    }
}

/** Resilience config with resume in a scratch dir, fast backoff. */
CampaignConfig
testConfig(const fs::path &dir)
{
    CampaignConfig cfg;
    cfg.retries = 1;
    cfg.backoffMs = 1;
    cfg.resume = true;
    cfg.journalDir = dir.string();
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------------
// Cell codec: exact round-trips
// ---------------------------------------------------------------------------

TEST(CellCodec, U64RoundTripsFullRange)
{
    using tartan::workloads::decodeU64;
    using tartan::workloads::encodeU64;
    const std::uint64_t values[] = {
        0, 1, (1ull << 53) + 1, // breaks a double-typed encoding
        std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t v : values) {
        std::uint64_t back = 0;
        ASSERT_TRUE(decodeU64(encodeU64(v), back)) << v;
        EXPECT_EQ(back, v);
    }
    std::uint64_t out = 0;
    EXPECT_FALSE(decodeU64("", out));
    EXPECT_FALSE(decodeU64("12x", out));
    EXPECT_FALSE(decodeU64("-1", out));
    EXPECT_FALSE(decodeU64("99999999999999999999999", out)); // overflow
}

TEST(CellCodec, DoubleRoundTripsBitExactly)
{
    using tartan::workloads::decodeDouble;
    using tartan::workloads::encodeDouble;
    const double values[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             2.5000000000000004,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             std::nan(""),
                             HUGE_VAL,
                             -HUGE_VAL};
    for (double v : values) {
        double back = 0;
        ASSERT_TRUE(decodeDouble(encodeDouble(v), back))
            << encodeDouble(v);
        if (std::isnan(v))
            EXPECT_TRUE(std::isnan(back));
        else
            EXPECT_TRUE(sameBits(v, back)) << encodeDouble(v);
    }
    double out = 0;
    EXPECT_FALSE(decodeDouble("", out));
    EXPECT_FALSE(decodeDouble("0x1.8p+0 trailing", out));
}

TEST(CellCodec, DoubleCodecIsLocaleIndependent)
{
    using tartan::workloads::decodeDouble;
    using tartan::workloads::encodeDouble;

    // Comma-decimal locales (de_DE, fr_FR) make printf("%a") emit
    // "0x1,8p+1" and make strtod reject "0x1.8p+1" — which silently
    // corrupted payloads written on one machine and read on another.
    // The codec must round-trip bit-exactly regardless of LC_NUMERIC.
    const char *current = std::setlocale(LC_NUMERIC, nullptr);
    const std::string saved = current ? current : "C";
    const char *candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR"};
    const char *active = nullptr;
    for (const char *cand : candidates) {
        if (std::setlocale(LC_NUMERIC, cand)) {
            active = cand;
            break;
        }
    }
    if (!active) {
        // Decoding must still accept both radix spellings even when no
        // comma locale is installed to prove the encoder side.
        double out = 0;
        ASSERT_TRUE(decodeDouble("0x1,8p+1", out));
        EXPECT_EQ(out, 3.0);
        GTEST_SKIP() << "no comma-decimal locale installed";
    }

    const double values[] = {1.0 / 3.0, 2.5000000000000004, -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             6.25e9};
    for (double v : values) {
        const std::string text = encodeDouble(v);
        // The wire format is locale-independent: always '.'-radix.
        EXPECT_EQ(text.find(','), std::string::npos) << text;
        double back = 0;
        ASSERT_TRUE(decodeDouble(text, back)) << text;
        EXPECT_TRUE(sameBits(v, back)) << text;
    }
    // Payloads written by the pre-fix encoder under a comma locale
    // carry ','-radix hexfloats; decode must accept them too.
    double out = 0;
    ASSERT_TRUE(decodeDouble("0x1,8p+1", out));
    EXPECT_EQ(out, 3.0);
    ASSERT_TRUE(decodeDouble("-0x1,0p-1074", out));
    EXPECT_TRUE(sameBits(out, -std::numeric_limits<double>::denorm_min()));

    std::setlocale(LC_NUMERIC, saved.c_str());
}

TEST(CellCodec, RunResultRoundTripsBitExactly)
{
    const RunResult res = sampleResult();
    const std::string payload = tartan::workloads::encodeRunResult(res);
    // Payloads are single-line JSON.
    EXPECT_EQ(payload.find('\n'), std::string::npos);

    RunResult back;
    std::string err;
    ASSERT_TRUE(tartan::workloads::decodeRunResult(payload, back, &err))
        << err;
    expectIdentical(res, back);

    // Encoding is a pure function of the value: re-encoding the
    // decoded result reproduces the payload byte for byte.
    EXPECT_EQ(tartan::workloads::encodeRunResult(back), payload);
}

TEST(CellCodec, RunResultDecodeRejectsForeignVersionsAndGarbage)
{
    const std::string payload =
        tartan::workloads::encodeRunResult(sampleResult());
    RunResult out;
    std::string err;

    // Foreign codec version.
    std::string tampered = payload;
    const auto vpos = tampered.find("\"v\":\"");
    ASSERT_NE(vpos, std::string::npos);
    tampered[vpos + 5] = '9';
    EXPECT_FALSE(
        tartan::workloads::decodeRunResult(tampered, out, &err));
    EXPECT_FALSE(err.empty());

    // Truncated payload and non-JSON garbage.
    err.clear();
    EXPECT_FALSE(tartan::workloads::decodeRunResult(
        payload.substr(0, payload.size() / 2), out, &err));
    err.clear();
    EXPECT_FALSE(tartan::workloads::decodeRunResult("not json", out,
                                                    &err));
}

TEST(CellCodec, ConfigHashSeparatesLabelsMachinesAndSalt)
{
    using tartan::workloads::cellConfigHash;
    const MachineSpec tartan_spec = MachineSpec::tartan();
    const MachineSpec base_spec = MachineSpec::baseline();
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.5;
    opt.seed = 42;

    const std::uint64_t h = cellConfigHash("A", tartan_spec, opt);
    // Stable across calls...
    EXPECT_EQ(h, cellConfigHash("A", tartan_spec, opt));
    // ...but sensitive to every identity dimension.
    EXPECT_NE(h, cellConfigHash("B", tartan_spec, opt));
    EXPECT_NE(h, cellConfigHash("A", base_spec, opt));
    EXPECT_NE(h, cellConfigHash("A", tartan_spec, opt, "fault:x"));

    // The stream/timing partition. Every field is one knob: a knob
    // that shapes the op stream changes the stream key and the cell
    // address; a timing-only knob changes the cell address alone. Each
    // knob changes exactly one term of describeCell(), so no field is
    // described twice, and the terms past codec, taxonomy and robot
    // are exactly the knobs below, so none is described without a test.
    using tartan::workloads::describeCell;
    using tartan::workloads::streamConfigHash;
    using Set = std::function<void(MachineSpec &, WorkloadOptions &)>;
    struct Knob {
        const char *name;
        bool stream;  //!< shapes the op stream
        Set set;
    };
    using tartan::core::NpuPlacement;
    using tartan::sim::FcpParams;
    using tartan::sim::PrefetcherKind;
    using tartan::workloads::NnsKind;
    using tartan::workloads::OrientedKind;
    using M = MachineSpec;
    using O = WorkloadOptions;
    const Knob knobs[] = {
        // Stream-shaping.
        {"vectorLanes", true, [](M &m, O &) { m.sys.core.vectorLanes = 8; }},
        {"ovec", true, [](M &m, O &) { m.ovec = !m.ovec; }},
        {"npu", true, [](M &m, O &) { m.npu = !m.npu; }},
        {"wtQueues", true, [](M &m, O &) { m.wtQueues = !m.wtQueues; }},
        {"tier", true, [](M &, O &o) { o.tier = SoftwareTier::Legacy; }},
        {"scale", true, [](M &, O &o) { o.scale = 0.25; }},
        {"seed", true, [](M &, O &o) { o.seed = 43; }},
        {"nns", true, [](M &, O &o) { o.nns = NnsKind::Brute; }},
        {"nnsExplicit", true, [](M &, O &o) { o.nnsExplicit = true; }},
        {"oriented", true,
         [](M &, O &o) { o.oriented = OrientedKind::Scalar; }},
        {"softwareNeural", true, [](M &, O &o) { o.softwareNeural = true; }},
        // Timing-only: cache geometry and line size.
        {"lineBytes", false, [](M &m, O &) { m.sys.lineBytes = 64; }},
        {"l1Size", false, [](M &m, O &) { m.sys.l1Size *= 2; }},
        {"l1Assoc", false, [](M &m, O &) { m.sys.l1Assoc *= 2; }},
        {"l1Latency", false, [](M &m, O &) { ++m.sys.l1Latency; }},
        {"l2Size", false, [](M &m, O &) { m.sys.l2Size *= 2; }},
        {"l2Assoc", false, [](M &m, O &) { m.sys.l2Assoc *= 2; }},
        {"l2Latency", false, [](M &m, O &) { ++m.sys.l2Latency; }},
        {"l3Size", false, [](M &m, O &) { m.sys.l3Size *= 2; }},
        {"l3Assoc", false, [](M &m, O &) { m.sys.l3Assoc *= 2; }},
        {"l3Latency", false, [](M &m, O &) { ++m.sys.l3Latency; }},
        {"dramLatency", false, [](M &m, O &) { ++m.sys.dramLatency; }},
        // Core widths.
        {"issueWidth", false, [](M &m, O &) { ++m.sys.core.issueWidth; }},
        {"missOverlap", false, [](M &m, O &) { ++m.sys.core.missOverlap; }},
        // Prefetcher, FCP, UDM tracking.
        {"prefetcher", false,
         [](M &m, O &) { m.sys.prefetcher = PrefetcherKind::Bingo; }},
        {"fcpEnabled", false,
         [](M &m, O &) { m.sys.fcpEnabled = !m.sys.fcpEnabled; }},
        {"fcpRegionBytes", false,
         [](M &m, O &) { m.sys.fcpRegionBytes *= 2; }},
        {"fcpXorBits", false, [](M &m, O &) { ++m.sys.fcpXorBits; }},
        {"fcpFunc", false,
         [](M &m, O &) { m.sys.fcpFunc = FcpParams::Func::TwoX; }},
        {"fcpAtL3", false, [](M &m, O &) { m.sys.fcpAtL3 = true; }},
        {"trackUdm", false, [](M &m, O &) { m.sys.trackUdm = true; }},
        // The fleet machine: the core count and every uncore knob.
        {"simCores", false, [](M &m, O &) { m.sys.simCores = 4; }},
        {"uncore.lineBytes", false,
         [](M &m, O &) { m.sys.uncore.lineBytes = 32; }},
        {"uncore.l3Slices", false,
         [](M &m, O &) { m.sys.uncore.l3Slices = 8; }},
        {"uncore.xbarHopLatency", false,
         [](M &m, O &) { m.sys.uncore.xbarHopLatency = 5; }},
        {"uncore.dramBanks", false,
         [](M &m, O &) { m.sys.uncore.dramBanks = 16; }},
        {"uncore.dramRowBytes", false,
         [](M &m, O &) { m.sys.uncore.dramRowBytes = 4096; }},
        {"uncore.dramRowHitLatency", false,
         [](M &m, O &) { m.sys.uncore.dramRowHitLatency = 150; }},
        {"uncore.dramRowMissLatency", false,
         [](M &m, O &) { m.sys.uncore.dramRowMissLatency = 240; }},
        {"uncore.coherenceLatency", false,
         [](M &m, O &) { m.sys.uncore.coherenceLatency = 20; }},
        // ANL configuration.
        {"useAnl", false, [](M &m, O &) { m.useAnl = !m.useAnl; }},
        {"anl.entries", false, [](M &m, O &) { m.anlCfg.entries *= 2; }},
        {"anl.regionBytes", false,
         [](M &m, O &) { m.anlCfg.regionBytes *= 2; }},
        {"anl.lineBytes", false, [](M &m, O &) { m.anlCfg.lineBytes *= 2; }},
        {"anl.maxDegree", false, [](M &m, O &) { --m.anlCfg.maxDegree; }},
        // NPU sizing and placement.
        {"npu.pes", false, [](M &m, O &) { m.npuCfg.pes *= 2; }},
        {"npu.macDrainLatency", false,
         [](M &m, O &) { ++m.npuCfg.macDrainLatency; }},
        {"npu.commLatency", false, [](M &m, O &) { ++m.npuCfg.commLatency; }},
        {"npu.coprocCommLatency", false,
         [](M &m, O &) { ++m.npuCfg.coprocCommLatency; }},
        {"npu.placement", false,
         [](M &m, O &) { m.npuCfg.placement = NpuPlacement::Coprocessor; }},
    };
    const auto terms = [](const std::string &text) {
        std::vector<std::string> out(1);
        for (char ch : text) {
            if (ch == ';' || ch == '/')
                out.emplace_back();
            else
                out.back() += ch;
        }
        return out;
    };
    const std::uint64_t stream = streamConfigHash("A", tartan_spec, opt);
    const std::vector<std::string> base_terms =
        terms(describeCell("A", tartan_spec, opt));
    EXPECT_EQ(base_terms.size(), std::size(knobs) + 3);
    for (const Knob &k : knobs) {
        SCOPED_TRACE(k.name);
        MachineSpec spec = tartan_spec;
        WorkloadOptions o = opt;
        k.set(spec, o);
        EXPECT_NE(cellConfigHash("A", spec, o), h);
        EXPECT_EQ(streamConfigHash("A", spec, o) != stream, k.stream);
        const std::vector<std::string> t = terms(describeCell("A", spec, o));
        ASSERT_EQ(t.size(), base_terms.size());
        std::size_t differ = 0;
        for (std::size_t i = 0; i < t.size(); ++i)
            differ += t[i] != base_terms[i];
        EXPECT_EQ(differ, 1u);
    }

    // The observation hooks are in neither key.
    WorkloadOptions hooked = opt;
    tartan::sim::FaultInjector injector(tartan::sim::FaultPlan{}, 1);
    hooked.faults = &injector;
    EXPECT_EQ(cellConfigHash("A", tartan_spec, hooked), h);
    EXPECT_EQ(streamConfigHash("A", tartan_spec, hooked), stream);
}

TEST(CellCodec, FleetOutcomeRoundTripsAndRejectsDamage)
{
    using Codec = tartan::bench::CellCodec<tartan::bench::FleetOutcome>;
    tartan::bench::FleetOutcome fleet;
    for (int c = 0; c < 4; ++c) {
        RunResult res = sampleResult();
        res.robot += std::to_string(c);
        res.wallCycles += std::uint64_t(c);
        fleet.cores.push_back(res);
    }
    auto &u = fleet.uncore;
    u.coherence = {11, 12, 13, 14, 15, 16};
    u.xbar = {21, std::numeric_limits<std::uint64_t>::max()};
    u.memctrl = {31, 32, 33, 34, 35, (1ull << 53) + 1};

    const std::string payload = Codec::encode(fleet);
    EXPECT_EQ(payload.find('\n'), std::string::npos);
    tartan::bench::FleetOutcome back;
    std::string err;
    ASSERT_TRUE(Codec::decode(payload, back, &err)) << err;
    ASSERT_EQ(back.cores.size(), 4u);
    for (int c = 0; c < 4; ++c)
        expectIdentical(fleet.cores[c], back.cores[c]);
    const auto &b = back.uncore;
    EXPECT_EQ(b.coherence.snoops, 11u);
    EXPECT_EQ(b.coherence.invalidations, 12u);
    EXPECT_EQ(b.coherence.downgrades, 13u);
    EXPECT_EQ(b.coherence.dirtyForwards, 14u);
    EXPECT_EQ(b.coherence.upgrades, 15u);
    EXPECT_EQ(b.coherence.sharedFills, 16u);
    EXPECT_EQ(b.xbar.traversals, 21u);
    EXPECT_EQ(b.xbar.hops, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(b.memctrl.reads, 31u);
    EXPECT_EQ(b.memctrl.writes, 32u);
    EXPECT_EQ(b.memctrl.rowHits, 33u);
    EXPECT_EQ(b.memctrl.rowMisses, 34u);
    EXPECT_EQ(b.memctrl.bankConflicts, 35u);
    EXPECT_EQ(b.memctrl.conflictCycles, (1ull << 53) + 1);
    EXPECT_EQ(Codec::encode(back), payload);

    // Truncation at every eighth length, a flipped byte in a core
    // payload and in the fabric, a foreign version, and garbage.
    tartan::bench::FleetOutcome out;
    for (std::size_t len = 0; len < payload.size(); len += 8)
        EXPECT_FALSE(Codec::decode(payload.substr(0, len), out)) << len;
    for (const char *anchor : {"\\\"wall\\\":\\\"", "\"fabric\":[\""}) {
        const auto pos = payload.find(anchor);
        ASSERT_NE(pos, std::string::npos) << anchor;
        std::string flipped = payload;
        flipped[pos + std::strlen(anchor)] ^= 0xff;
        EXPECT_FALSE(Codec::decode(flipped, out)) << anchor;
    }
    std::string foreign = payload;
    ASSERT_EQ(foreign.compare(0, 9, "{\"v\":\"1\","), 0);
    foreign[6] = '2';
    err.clear();
    EXPECT_FALSE(Codec::decode(foreign, out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(Codec::decode("not json", out));
    EXPECT_FALSE(Codec::decode("{\"v\":\"1\",\"cores\":[],\"fabric\":[]}",
                               out));
    EXPECT_FALSE(Codec::decode(
        tartan::workloads::encodeRunResult(fleet.cores[0]), out));
}

// ---------------------------------------------------------------------------
// Durable writer
// ---------------------------------------------------------------------------

TEST(DurableWrite, WritesAtomicallyAndCreatesParents)
{
    const fs::path dir = scratchDir("durable");
    const fs::path target = dir / "nested" / "out.json";
    ASSERT_TRUE(tartan::sim::json::writeFileDurable(
        target.string(), [](std::ostream &os) { os << "{\"a\":1}"; },
        "test"));
    EXPECT_EQ(slurp(target), "{\"a\":1}");

    // Overwrite replaces the whole file, never appends or tears.
    ASSERT_TRUE(tartan::sim::json::writeFileDurable(
        target.string(), [](std::ostream &os) { os << "{}"; }, "test"));
    EXPECT_EQ(slurp(target), "{}");

    // No stray temporaries left next to the target.
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(target.parent_path())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

namespace {

const std::uint64_t kSchema = 1001;

} // namespace

// ---------------------------------------------------------------------------
// Result cache: verified load, eviction
// ---------------------------------------------------------------------------

TEST(ResultCache, StoreLoadRoundTripAndKeySeparation)
{
    const fs::path dir = scratchDir("cache_roundtrip");
    ResultCache cache(dir.string(), kSchema);
    const std::string payload = "{\"v\":\"1\",\"x\":\"0x1.8p+0\"}";
    ASSERT_TRUE(cache.store(0xabc, 42, "cellA", payload));

    const auto hit = cache.load(0xabc, 42, "cellA");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);

    EXPECT_FALSE(cache.load(0xabd, 42, "cellA").has_value());
    EXPECT_FALSE(cache.load(0xabc, 43, "cellA").has_value());

    // A different schema version addresses different entries even for
    // the same (hash, seed): stale codecs can never serve a hit.
    ResultCache stale(dir.string(), kSchema + 1);
    EXPECT_FALSE(stale.load(0xabc, 42, "cellA").has_value());
}

TEST(ResultCache, CorruptEntryIsEvictedAndMissed)
{
    const fs::path dir = scratchDir("cache_corrupt");
    ResultCache cache(dir.string(), kSchema);
    ASSERT_TRUE(cache.store(0xdef, 7, "cellB", "{\"v\":\"1\"}"));
    const fs::path entry = cache.entryPath(0xdef, 7);
    ASSERT_TRUE(fs::exists(entry));

    // Flip payload bytes on disk: the CRC check must catch it.
    std::string bytes = slurp(entry);
    const auto pos = bytes.find("\\\"v\\\"");
    ASSERT_NE(pos, std::string::npos) << bytes;
    bytes[pos + 2] = 'w';
    spit(entry, bytes);

    EXPECT_FALSE(cache.load(0xdef, 7, "cellB").has_value());
    // Evicted: the bad file is gone, and a fresh store replaces it.
    EXPECT_FALSE(fs::exists(entry));
    ASSERT_TRUE(cache.store(0xdef, 7, "cellB", "{\"v\":\"1\"}"));
    EXPECT_TRUE(cache.load(0xdef, 7, "cellB").has_value());
}

TEST(ResultCache, UnparsableEntryIsEvicted)
{
    const fs::path dir = scratchDir("cache_garbage");
    ResultCache cache(dir.string(), kSchema);
    ASSERT_TRUE(cache.store(0x11, 1, "cellC", "{\"v\":\"1\"}"));
    spit(cache.entryPath(0x11, 1), "not json at all");
    EXPECT_FALSE(cache.load(0x11, 1, "cellC").has_value());
    EXPECT_FALSE(fs::exists(cache.entryPath(0x11, 1)));
}

// ---------------------------------------------------------------------------
// CampaignRunner: retry, quarantine, resume, cache integration
// ---------------------------------------------------------------------------

namespace {

/** Submit flaky/fatal/ok cells and gather; shared by both pool widths. */
std::vector<CellOutcome>
runFlakySweep(RunPool &pool, const CampaignConfig &cfg,
              std::vector<int> &attempt_log)
{
    static std::atomic<int> flaky_attempts;
    flaky_attempts = 0;
    CampaignRunner runner("flaky", pool, cfg, kSchema);
    runner.submit(CellSpec{"ok", 1, 1, true},
                  []() { return std::string("{\"r\":\"ok\"}"); });
    runner.submit(CellSpec{"flaky", 2, 1, true}, []() {
        if (flaky_attempts.fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return std::string("{\"r\":\"flaky\"}");
    });
    runner.submit(CellSpec{"fatal", 3, 1, true}, []() -> std::string {
        throw std::runtime_error("always dies");
    });
    runner.submit(CellSpec{"after", 4, 1, true},
                  []() { return std::string("{\"r\":\"after\"}"); });
    auto outcomes = runner.gather();
    attempt_log.push_back(flaky_attempts.load());
    return outcomes;
}

} // namespace

TEST(CampaignRunner, RetryAndQuarantineAreDeterministicAcrossPoolWidths)
{
    CampaignConfig cfg;
    cfg.retries = 1;
    cfg.backoffMs = 1;

    std::vector<std::vector<CellOutcome>> sweeps;
    std::vector<int> attempt_log;
    for (unsigned jobs : {1u, 4u}) {
        RunPool pool(jobs);
        sweeps.push_back(runFlakySweep(pool, cfg, attempt_log));
    }

    for (const auto &outcomes : sweeps) {
        ASSERT_EQ(outcomes.size(), 4u);
        EXPECT_EQ(outcomes[0].status, CellOutcome::Status::Ok);
        EXPECT_EQ(outcomes[0].payload, "{\"r\":\"ok\"}");
        EXPECT_EQ(outcomes[0].attempts, 1u);

        // The flaky cell failed once and succeeded on the retry.
        EXPECT_EQ(outcomes[1].status, CellOutcome::Status::Ok);
        EXPECT_EQ(outcomes[1].payload, "{\"r\":\"flaky\"}");
        EXPECT_EQ(outcomes[1].attempts, 2u);

        // The fatal cell exhausted retries and was quarantined with
        // its identity and classification — the sweep continued.
        EXPECT_EQ(outcomes[2].status, CellOutcome::Status::Failed);
        EXPECT_EQ(outcomes[2].label, "fatal");
        EXPECT_EQ(outcomes[2].errorClass, "exception");
        EXPECT_EQ(outcomes[2].errorDetail, "always dies");
        EXPECT_EQ(outcomes[2].attempts, 2u);

        EXPECT_EQ(outcomes[3].status, CellOutcome::Status::Ok);
        EXPECT_EQ(outcomes[3].payload, "{\"r\":\"after\"}");
    }
    // Identical retry behaviour serial vs parallel.
    EXPECT_EQ(attempt_log[0], 2);
    EXPECT_EQ(attempt_log[1], 2);
}

TEST(CampaignRunner, StatsAndFailureReportCoverEveryCell)
{
    CampaignConfig cfg;
    cfg.retries = 0;
    RunPool pool(2);
    CampaignRunner runner("stats", pool, cfg, kSchema);
    runner.submit(CellSpec{"good", 1, 1, true},
                  []() { return std::string("{}"); });
    runner.submit(CellSpec{"bad1", 2, 1, true}, []() -> std::string {
        throw std::runtime_error("first failure");
    });
    runner.submit(CellSpec{"bad2", 3, 1, true}, []() -> std::string {
        throw tartan::sim::CellCrashError("second failure");
    });
    runner.gather();

    const auto &stats = runner.stats();
    EXPECT_EQ(stats.simulated, 1u);
    EXPECT_EQ(stats.failed, 2u);
    // *All* failures are collected with cell identity, not just the
    // first to surface.
    ASSERT_EQ(stats.failures.size(), 2u);
    EXPECT_EQ(stats.failures[0].index, 1u);
    EXPECT_EQ(stats.failures[0].label, "bad1");
    EXPECT_EQ(stats.failures[0].errorClass, "exception");
    EXPECT_EQ(stats.failures[1].index, 2u);
    EXPECT_EQ(stats.failures[1].label, "bad2");
    EXPECT_EQ(stats.failures[1].errorClass, "crash");
}

TEST(CampaignRunner, WatchdogTimesOutHungCellsDeterministically)
{
    CampaignConfig cfg;
    cfg.timeoutSec = 0.05;
    cfg.retries = 1;
    cfg.backoffMs = 1;

    for (unsigned jobs : {1u, 4u}) {
        RunPool pool(jobs);
        CampaignRunner runner("hang", pool, cfg, kSchema);
        runner.submit(CellSpec{"hung", 1, 1, true}, []() -> std::string {
            tartan::sim::hangUntilWatchdog();
        });
        runner.submit(CellSpec{"quick", 2, 1, true},
                      []() { return std::string("{}"); });
        const auto outcomes = runner.gather();

        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_EQ(outcomes[0].status, CellOutcome::Status::Failed);
        EXPECT_EQ(outcomes[0].errorClass, "timeout");
        EXPECT_EQ(outcomes[0].attempts, 2u); // retried, then quarantined
        EXPECT_EQ(outcomes[1].status, CellOutcome::Status::Ok);
        EXPECT_EQ(runner.stats().failed, 1u);
    }
}

TEST(CampaignRunner, WatchdogUnwindsHungReplayWorkers)
{
    // Regression: the replay drain loop issues no robot-side heartbeats
    // of its own, so a replayed cell that exceeded its budget used to
    // starve the watchdog and hang the sweep instead of timing out.
    // replayTrace() now beats per record; a tight deadline must unwind
    // the worker with the usual "timeout" classification.
    CampaignConfig cfg;
    cfg.timeoutSec = 0.05;
    cfg.retries = 0;

    tartan::sim::CaptureSession session(1, 1);
    for (int i = 0; i < 64; ++i)
        session.exec(10, 0);
    const tartan::sim::CaptureTrace trace = session.take();
    const MachineSpec spec = MachineSpec::baseline();
    WorkloadOptions opt;

    RunPool pool(1);
    CampaignRunner runner("replay_hang", pool, cfg, kSchema);
    runner.submit(CellSpec{"replay_forever", 1, 1, true},
                  [&]() -> std::string {
                      // A replay loop that would never finish: only the
                      // in-loop heartbeat can end it.
                      for (;;)
                          tartan::workloads::replayTrace(trace, spec,
                                                         opt);
                  });
    const auto outcomes = runner.gather();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, CellOutcome::Status::Failed);
    EXPECT_EQ(outcomes[0].errorClass, "timeout");
}

TEST(CampaignRunner, SuspendedWaitsDoNotEatTheCellBudget)
{
    // Replayed siblings queue behind the first cell's capture under
    // ScopedWatchSuspend: the wait must not count against their own
    // TARTAN_TIMEOUT budget. Model the wait with a sleep longer than
    // the whole deadline — suspended, the cell still completes.
    CampaignConfig cfg;
    cfg.timeoutSec = 0.1;
    cfg.retries = 0;

    RunPool pool(1);
    CampaignRunner runner("suspend", pool, cfg, kSchema);
    runner.submit(CellSpec{"waits", 1, 1, true}, []() {
        {
            tartan::sim::ScopedWatchSuspend suspend;
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
        }
        // Back on the clock: the extended deadline must have room left.
        for (int i = 0; i < 4096; ++i)
            tartan::sim::heartbeat();
        return std::string("{}");
    });
    const auto outcomes = runner.gather();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, CellOutcome::Status::Ok)
        << outcomes[0].errorClass << ": " << outcomes[0].errorDetail;
}

TEST(CampaignRunner, ResumeReplaysJournaledCellsWithoutSimulating)
{
    const fs::path dir = scratchDir("runner_resume");
    const CampaignConfig cfg = testConfig(dir);

    // First sweep: everything simulates and lands in the resume store.
    std::vector<std::string> payloads;
    {
        RunPool pool(1);
        CampaignRunner runner("resume_demo", pool, cfg, kSchema);
        runner.submit(CellSpec{"a", 10, 1, true},
                      []() { return std::string("{\"r\":\"a\"}"); });
        runner.submit(CellSpec{"b", 20, 2, true},
                      []() { return std::string("{\"r\":\"b\"}"); });
        for (const auto &out : runner.gather())
            payloads.push_back(out.payload);
        EXPECT_EQ(runner.stats().simulated, 2u);
        EXPECT_EQ(runner.stats().journalHits, 0u);
    }

    // Second sweep, same identities: both cells replay; the run
    // closure must never execute.
    {
        RunPool pool(1);
        CampaignRunner runner("resume_demo", pool, cfg, kSchema);
        runner.submit(CellSpec{"a", 10, 1, true}, []() -> std::string {
            ADD_FAILURE() << "journal hit must not re-simulate";
            return "{}";
        });
        runner.submit(CellSpec{"b", 20, 2, true}, []() -> std::string {
            ADD_FAILURE() << "journal hit must not re-simulate";
            return "{}";
        });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().simulated, 0u);
        EXPECT_EQ(runner.stats().journalHits, 2u);
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_EQ(outcomes[0].payload, payloads[0]);
        EXPECT_EQ(outcomes[1].payload, payloads[1]);
        EXPECT_EQ(outcomes[0].source, CellOutcome::Source::Journal);
    }

    // A changed configuration hash is a different cell: it must
    // re-simulate even at the same index/label.
    {
        RunPool pool(1);
        CampaignRunner runner("resume_demo", pool, cfg, kSchema);
        runner.submit(CellSpec{"a", 11, 1, true},
                      []() { return std::string("{\"r\":\"a2\"}"); });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(outcomes[0].payload, "{\"r\":\"a2\"}");
    }
}

TEST(CampaignRunner, InterruptedSweepResumesOnlyTheRemainder)
{
    const fs::path dir = scratchDir("runner_partial");
    const CampaignConfig cfg = testConfig(dir);

    // Model a sweep killed after two of three cells: store only the
    // completed prefix (what a real kill -9 leaves behind).
    {
        RunPool pool(1);
        CampaignRunner runner("partial", pool, cfg, kSchema);
        runner.submit(CellSpec{"c0", 1, 1, true},
                      []() { return std::string("{\"r\":\"0\"}"); });
        runner.submit(CellSpec{"c1", 2, 2, true},
                      []() { return std::string("{\"r\":\"1\"}"); });
        runner.gather();
    }

    // The rerun submits all three; the first two replay, the third
    // simulates, and the combined payload sequence matches an
    // uninterrupted run.
    {
        RunPool pool(1);
        CampaignRunner runner("partial", pool, cfg, kSchema);
        runner.submit(CellSpec{"c0", 1, 1, true}, []() -> std::string {
            ADD_FAILURE() << "completed cell re-simulated";
            return "{}";
        });
        runner.submit(CellSpec{"c1", 2, 2, true}, []() -> std::string {
            ADD_FAILURE() << "completed cell re-simulated";
            return "{}";
        });
        runner.submit(CellSpec{"c2", 3, 3, true},
                      []() { return std::string("{\"r\":\"2\"}"); });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().journalHits, 2u);
        EXPECT_EQ(runner.stats().simulated, 1u);
        ASSERT_EQ(outcomes.size(), 3u);
        EXPECT_EQ(outcomes[0].payload, "{\"r\":\"0\"}");
        EXPECT_EQ(outcomes[1].payload, "{\"r\":\"1\"}");
        EXPECT_EQ(outcomes[2].payload, "{\"r\":\"2\"}");
    }
}

TEST(CampaignRunner, CacheHitsSkipSimulationAndSurviveCorruption)
{
    const fs::path dir = scratchDir("runner_cache");
    CampaignConfig cfg;
    cfg.cacheDir = (dir / "cache").string();

    std::atomic<int> simulations{0};
    const auto sim_cell = [&simulations]() {
        simulations.fetch_add(1);
        return std::string("{\"r\":\"cached\"}");
    };

    // First sweep populates the cache.
    {
        RunPool pool(1);
        CampaignRunner runner("cachey", pool, cfg, kSchema);
        runner.submit(CellSpec{"x", 100, 5, true}, sim_cell);
        runner.gather();
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().cacheHits, 0u);
    }
    EXPECT_EQ(simulations.load(), 1);

    // Second sweep: zero simulations, identical payload.
    {
        RunPool pool(1);
        CampaignRunner runner("cachey", pool, cfg, kSchema);
        runner.submit(CellSpec{"x", 100, 5, true}, sim_cell);
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().cacheHits, 1u);
        EXPECT_EQ(runner.stats().simulated, 0u);
        EXPECT_EQ(outcomes[0].payload, "{\"r\":\"cached\"}");
        EXPECT_EQ(outcomes[0].source, CellOutcome::Source::Cache);
    }
    EXPECT_EQ(simulations.load(), 1);

    // Corrupt the entry on disk: the third sweep detects it, evicts,
    // and re-simulates — a corrupt cache costs time, not correctness.
    ResultCache cache(cfg.cacheDir, kSchema);
    const fs::path entry = cache.entryPath(100, 5);
    ASSERT_TRUE(fs::exists(entry));
    std::string bytes = slurp(entry);
    const auto pos = bytes.find("cached");
    ASSERT_NE(pos, std::string::npos) << bytes;
    bytes[pos] = 'C'; // payload bit-flip: the CRC must catch it
    spit(entry, bytes);
    {
        RunPool pool(1);
        CampaignRunner runner("cachey", pool, cfg, kSchema);
        runner.submit(CellSpec{"x", 100, 5, true}, sim_cell);
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().cacheHits, 0u);
        EXPECT_EQ(outcomes[0].payload, "{\"r\":\"cached\"}");
    }
    EXPECT_EQ(simulations.load(), 2);
    // The re-simulated result was re-stored; the cache serves again.
    EXPECT_TRUE(cache.load(100, 5, "x").has_value());
}

TEST(CampaignRunner, ResumeStoreAndSharedCacheCompose)
{
    const fs::path dir = scratchDir("runner_compose");
    CampaignConfig cfg = testConfig(dir);
    cfg.cacheDir = (dir / "cache").string();

    // Another campaign already filled the shared cache with two cells.
    const ResultCache shared(cfg.cacheDir, kSchema);
    ASSERT_TRUE(shared.store(10, 1, "a", "{\"r\":\"a\"}"));
    ASSERT_TRUE(shared.store(20, 2, "b", "{\"r\":\"b\"}"));
    const auto never = []() -> std::string {
        ADD_FAILURE() << "a stored cell re-simulated";
        return "{}";
    };

    // First sweep: the shared cache serves two cells, one simulates,
    // and gather() writes all three into the resume store.
    {
        RunPool pool(1);
        CampaignRunner runner("compose", pool, cfg, kSchema);
        runner.submit(CellSpec{"a", 10, 1, true}, never);
        runner.submit(CellSpec{"b", 20, 2, true}, never);
        runner.submit(CellSpec{"c", 30, 3, true},
                      []() { return std::string("{\"r\":\"c\"}"); });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().cacheHits, 2u);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().journalHits, 0u);
        ASSERT_EQ(outcomes.size(), 3u);
        EXPECT_EQ(outcomes[0].source, CellOutcome::Source::Cache);
        EXPECT_EQ(outcomes[2].source, CellOutcome::Source::Run);
    }
    const ResultCache resume((dir / "RESUME_compose").string(), kSchema);
    EXPECT_TRUE(resume.load(10, 1, "a").has_value());
    EXPECT_TRUE(resume.load(30, 3, "c").has_value());
    // The fresh cell also reached the shared cache.
    EXPECT_TRUE(shared.load(30, 3, "c").has_value());

    // Rerun: the resume store is looked up before the shared cache, so
    // every cell is a resume hit and no closure runs.
    {
        RunPool pool(1);
        CampaignRunner runner("compose", pool, cfg, kSchema);
        runner.submit(CellSpec{"a", 10, 1, true}, never);
        runner.submit(CellSpec{"b", 20, 2, true}, never);
        runner.submit(CellSpec{"c", 30, 3, true}, never);
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().journalHits, 3u);
        EXPECT_EQ(runner.stats().cacheHits, 0u);
        EXPECT_EQ(runner.stats().simulated, 0u);
        ASSERT_EQ(outcomes.size(), 3u);
        EXPECT_EQ(outcomes[0].payload, "{\"r\":\"a\"}");
        EXPECT_EQ(outcomes[1].payload, "{\"r\":\"b\"}");
        EXPECT_EQ(outcomes[2].payload, "{\"r\":\"c\"}");
        EXPECT_EQ(outcomes[1].source, CellOutcome::Source::Journal);
    }
}

TEST(CampaignRunner, NonCacheableCellsAlwaysResimulate)
{
    const fs::path dir = scratchDir("runner_nocodec");
    CampaignConfig cfg = testConfig(dir);
    cfg.cacheDir = (dir / "cache").string();

    std::atomic<int> simulations{0};
    for (int sweep = 0; sweep < 2; ++sweep) {
        RunPool pool(1);
        CampaignRunner runner("nocodec", pool, cfg, kSchema);
        runner.submit(CellSpec{"side", 1, 1, /*cacheable=*/false},
                      [&simulations]() {
                          simulations.fetch_add(1);
                          return std::string();
                      });
        runner.gather();
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().journalHits, 0u);
        EXPECT_EQ(runner.stats().cacheHits, 0u);
    }
    EXPECT_EQ(simulations.load(), 2);
}

TEST(CampaignRunner, FailedCellsAreNeverJournaledOrCached)
{
    const fs::path dir = scratchDir("runner_nofail");
    CampaignConfig cfg = testConfig(dir);
    cfg.cacheDir = (dir / "cache").string();
    cfg.retries = 0;

    {
        RunPool pool(1);
        CampaignRunner runner("nofail", pool, cfg, kSchema);
        runner.submit(CellSpec{"dies", 1, 1, true}, []() -> std::string {
            throw std::runtime_error("boom");
        });
        runner.gather();
        EXPECT_EQ(runner.stats().failed, 1u);
    }

    // The rerun must retry the cell (no resume entry, no cache entry
    // poisoned by the failure) and can now succeed.
    {
        RunPool pool(1);
        CampaignRunner runner("nofail", pool, cfg, kSchema);
        runner.submit(CellSpec{"dies", 1, 1, true},
                      []() { return std::string("{\"r\":\"ok\"}"); });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().journalHits, 0u);
        EXPECT_EQ(outcomes[0].status, CellOutcome::Status::Ok);
    }
}
