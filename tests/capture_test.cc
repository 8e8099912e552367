/**
 * @file
 * Capture-once / replay-many engine: the byte-identity contract the
 * converted sweep drivers rely on. The tests pin down (1) the capture
 * file's corruption policy — truncated tails, bit-flipped bodies,
 * foreign format versions and implausible headers never load, mirroring
 * the result cache; (2) replay-vs-direct equivalence — for every robot
 * in the suite, a replayed capture reproduces the direct run's counters
 * and per-kernel CPI stacks exactly, both at the capture configuration
 * and across timing-only machine changes; (3) the capture accounting —
 * one robot execution serves N replays, with persisted captures
 * reloaded (and re-captured when corrupt) on later runs; (4) the
 * resume-mode mix — stored replayed cells resume byte-identically.
 *
 * The static captureRoot below pins TARTAN_CAPTURE_DIR to a fresh
 * per-process directory for this whole binary (RunEnv snapshots the
 * environment on first use) and removes it at exit; scratchDir() makes
 * its directories inside it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "../bench/bench_util.hh"
#include "process_dir.hh"
#include "sim/campaign.hh"
#include "sim/capture.hh"
#include "sim/checksum.hh"
#include "sim/env.hh"
#include "sim/runpool.hh"
#include "workloads/cellcodec.hh"
#include "workloads/common.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

namespace fs = std::filesystem;

using tartan::bench::CaptureSource;
using tartan::sim::CapOp;
using tartan::sim::CapRecord;
using tartan::sim::CaptureSession;
using tartan::sim::CaptureTrace;
using tartan::workloads::MachineSpec;
using tartan::workloads::RobotFn;
using tartan::workloads::RunResult;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;
using tartan::workloads::capture;
using tartan::workloads::streamConfigHash;

namespace {

/** Capture-dir root for the whole binary (set before RunEnv parses). */
const tartan::test::ProcessDir captureRoot("TARTAN_CAPTURE_DIR",
                                           "capture_test");

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

/** A fresh, empty scratch directory under the per-process root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(captureRoot.path()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small synthetic capture exercising every aux-bearing record. */
CaptureTrace
sampleTrace()
{
    CaptureSession session(0xfeedc0de, 7);
    session.registerKernel("raycast");
    session.setKernel(0);
    session.exec(120, 1);
    session.stall(35, 2);
    session.countInstructions(99);
    session.load(0x1000, 3, 1, 8);
    session.store(0x2000, 4, 16);
    session.vecOp(5);
    const std::uint64_t lanes[] = {0x3000, 0x3040, 0x3080};
    session.vecLoadLanes(lanes, 5, 2, 4, 1);
    session.deviceLoadLanes(lanes, 6, 10, 1);
    session.mapSegment(0x4000, 4096);
    session.serialBegin();
    session.serialEnd();
    session.overlapBegin();
    session.overlapEnd();
    session.discountRegion(4);
    const std::uint64_t ids[] = {0, 2};
    session.discountKernels(ids, 4);
    const std::uint32_t layers[] = {50, 256, 1};
    session.npuInfer(50, 1, layers);
    session.addMetric("planCost", 2.5);
    session.setRobot("TestBot");
    return session.take();
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.robot, b.robot);
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.workCycles, b.workCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.bottleneckKernel, b.bottleneckKernel);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
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
        EXPECT_EQ(a.kernels[i].name, b.kernels[i].name) << i;
        EXPECT_EQ(a.kernels[i].cycles, b.kernels[i].cycles)
            << a.kernels[i].name;
        EXPECT_EQ(a.kernels[i].memStallCycles,
                  b.kernels[i].memStallCycles)
            << a.kernels[i].name;
        EXPECT_EQ(a.kernels[i].instructions, b.kernels[i].instructions)
            << a.kernels[i].name;
        for (std::size_t c = 0; c < tartan::sim::kNumCpiCats; ++c)
            EXPECT_EQ(a.kernels[i].cpi.cat[c], b.kernels[i].cpi.cat[c])
                << a.kernels[i].name << " cat " << c;
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[key, val] : a.metrics) {
        const auto it = b.metrics.find(key);
        ASSERT_NE(it, b.metrics.end()) << key;
        std::uint64_t av, bv;
        std::memcpy(&av, &val, 8);
        std::memcpy(&bv, &it->second, 8);
        EXPECT_EQ(av, bv) << key;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Capture files: round-trip and corruption policy
// ---------------------------------------------------------------------------

TEST(CaptureFile, RoundTripsExactly)
{
    const fs::path dir = scratchDir("roundtrip");
    const fs::path path = dir / "t.tcap";
    const CaptureTrace trace = sampleTrace();
    ASSERT_TRUE(trace.validate());

    std::string err;
    ASSERT_TRUE(trace.save(path.string(), &err)) << err;
    // Atomic save leaves no temp sibling behind.
    EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

    CaptureTrace back;
    ASSERT_TRUE(CaptureTrace::load(path.string(), back, &err)) << err;
    EXPECT_EQ(back.configHash, trace.configHash);
    EXPECT_EQ(back.seed, trace.seed);
    ASSERT_EQ(back.records.size(), trace.records.size());
    EXPECT_EQ(std::memcmp(back.records.data(), trace.records.data(),
                          trace.records.size() * sizeof(CapRecord)),
              0);
    ASSERT_EQ(back.aux.size(), trace.aux.size());
    EXPECT_EQ(std::memcmp(back.aux.data(), trace.aux.data(),
                          trace.aux.size()),
              0);
}

TEST(CaptureFile, BodyCrcIsOneCrc32OverRecordsThenAux)
{
    // The IEEE check value, and chaining equals one pass.
    using tartan::sim::crc32;
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32("6789", crc32("12345")), crc32("123456789"));
    EXPECT_EQ(crc32("", crc32("abc")), crc32("abc"));

    // The header's body CRC (bytes 12..15) is the CRC-32 of the record
    // bytes followed by the aux bytes, so the format is unchanged by how
    // the CRC is computed.
    const fs::path path = scratchDir("crc") / "t.tcap";
    const CaptureTrace trace = sampleTrace();
    ASSERT_TRUE(trace.save(path.string()));
    const std::string bytes = slurp(path);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + 12, 4);
    EXPECT_EQ(stored, crc32(std::string_view(bytes).substr(64)));
}

TEST(CaptureFile, AbsentFileIsAMissNotCorruption)
{
    CaptureTrace out;
    std::string err = "sentinel";
    err.clear();
    EXPECT_FALSE(CaptureTrace::load("/nonexistent/nowhere.tcap", out,
                                    &err));
    EXPECT_TRUE(err.empty());
}

TEST(CaptureFile, TruncatedTailRejected)
{
    const fs::path dir = scratchDir("trunc");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    // SIGKILL mid-write: chop bytes off the end.
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 5));

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(CaptureFile, TrailingGarbageRejected)
{
    const fs::path dir = scratchDir("trailing");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));
    spit(path, slurp(path) + "junk");

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(CaptureFile, BitFlippedBodyRejectedByCrc)
{
    const fs::path dir = scratchDir("bitflip");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    std::string bytes = slurp(path);
    bytes[bytes.size() - 3] ^= 0x40; // bit rot inside the aux stream
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST(CaptureFile, ForeignFormatVersionRejected)
{
    const fs::path dir = scratchDir("version");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    // The version field sits right after the 8-byte magic.
    std::string bytes = slurp(path);
    const std::uint32_t foreign = 999;
    std::memcpy(bytes.data() + 8, &foreign, 4);
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(CaptureFile, BadMagicRejected)
{
    const fs::path dir = scratchDir("magic");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(CaptureFile, ImplausibleRecordCountRejectedBeforeAllocation)
{
    const fs::path dir = scratchDir("hugecount");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    // A corrupt header claiming 2^60 records must be rejected by the
    // file-size check, never turned into a giant allocation.
    std::string bytes = slurp(path);
    const std::uint64_t huge = 1ull << 60;
    std::memcpy(bytes.data() + 32, &huge, 8); // recordCount field
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("truncated or oversized"), std::string::npos)
        << err;
}

TEST(CaptureFile, WrappingAuxOffsetRejectedDespiteValidCrc)
{
    // An aux offset chosen so that offset + length wraps past 2^64 to a
    // small number. save() recomputes the CRC, so only the structural
    // check stands between the record and an out-of-bounds aux read.
    const fs::path dir = scratchDir("auxwrap");
    const fs::path path = dir / "t.tcap";
    for (const CapOp op : {CapOp::RegisterKernel, CapOp::VecLoadLanes}) {
        CaptureTrace trace = sampleTrace();
        CapRecord *target = nullptr;
        for (CapRecord &r : trace.records)
            if (CapOp(r.op) == op && !target)
                target = &r;
        ASSERT_NE(target, nullptr);
        const std::uint64_t len = op == CapOp::RegisterKernel
                                      ? target->a32
                                      : 8 * std::uint64_t(target->a32);
        ASSERT_GT(len, 0u);
        target->d = ~std::uint64_t(0) - len + 2;  // d + len == 1
        std::string err;
        ASSERT_TRUE(trace.save(path.string(), &err)) << err;

        CaptureTrace out;
        EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err))
            << "op " << int(op);
        EXPECT_NE(err.find("aux"), std::string::npos) << err;
    }
}

TEST(CaptureTrace, ValidateRejectsBadOpsAndAuxOverruns)
{
    CaptureTrace trace = sampleTrace();
    ASSERT_TRUE(trace.validate());

    // Unknown op tag.
    CaptureTrace bad_op = sampleTrace();
    bad_op.records[0].op = std::uint8_t(CapOp::NumOps);
    std::string err;
    EXPECT_FALSE(bad_op.validate(&err));
    EXPECT_NE(err.find("op tag"), std::string::npos) << err;

    // Aux reference past the end of the aux stream (the RegisterKernel
    // record is aux-bearing).
    CaptureTrace bad_aux = sampleTrace();
    ASSERT_EQ(CapOp(bad_aux.records[0].op), CapOp::RegisterKernel);
    bad_aux.records[0].d = bad_aux.aux.size();
    bad_aux.records[0].a32 = 1;
    err.clear();
    EXPECT_FALSE(bad_aux.validate(&err));
    EXPECT_NE(err.find("aux"), std::string::npos) << err;

    // A wall discount by zero, of either kind: a live run never
    // records one, and replay could not apply it.
    for (std::uint8_t kind : {0, 1}) {
        CaptureTrace bad_divisor = sampleTrace();
        bool found = false;
        for (CapRecord &r : bad_divisor.records) {
            if (CapOp(r.op) == CapOp::Discount && r.a8 == kind) {
                r.b = 0;
                found = true;
            }
        }
        ASSERT_TRUE(found) << int(kind);
        err.clear();
        EXPECT_FALSE(bad_divisor.validate(&err)) << int(kind);
        EXPECT_NE(err.find("discount by zero"), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------------------
// Replay-vs-direct equivalence
// ---------------------------------------------------------------------------

namespace {

/**
 * A scripted run through every wall-model primitive: a stage of six
 * uneven items over eight threads (four model cores), a serial section,
 * an overlap region with its discount and a kernel discount. Its loads
 * sweep a 256 KB buffer, so the wall depends on the cache geometry.
 */
RunResult
scriptedRun(const MachineSpec &spec, const WorkloadOptions &opt)
{
    using tartan::sim::Addr;
    using tartan::sim::ScopedKernel;
    tartan::workloads::Machine machine(spec, opt);
    tartan::sim::Core &core = machine.core();
    tartan::workloads::Pipeline pipeline(core);
    const auto k_scan = core.registerKernel("scan");
    const auto k_mix = core.registerKernel("mix");
    static std::uint64_t data[1 << 15];
    const auto sweep = [&](std::size_t first, std::size_t loads) {
        for (std::size_t i = 0; i < loads; ++i)
            core.load(reinterpret_cast<Addr>(
                          &data[(first + 8 * i) % std::size(data)]),
                      1);
    };

    pipeline.stage(8, 6, [&](std::uint32_t item) {
        ScopedKernel scope(core, k_scan);
        sweep(4096 * item, 300 * (item + 1));
    });
    pipeline.serial([&] {
        ScopedKernel scope(core, k_mix);
        core.exec(400);
        sweep(0, 500);
    });
    pipeline.overlapBegin();
    pipeline.serial([&] { sweep(1024, 2000); });
    pipeline.overlapEnd();
    pipeline.discountOverlap(4);
    pipeline.discountKernels({k_mix}, 4);

    RunResult result;
    result.robot = "ScriptBot";
    summarize(machine, pipeline, result);
    return result;
}

} // namespace

TEST(ReplayEquivalence, ScriptedWallModelReplaysExactly)
{
    // The robots exercise stage() (DeliBot) and overlap (PatrolBot)
    // one each; this run drives every Pipeline primitive through a
    // capture, then replays it at the capture config (32 B lines) and
    // on a machine with 64 B lines.
    const WorkloadOptions opt;
    const MachineSpec spec = MachineSpec::baseline();
    MachineSpec wide = spec;
    wide.sys.lineBytes = 64;
    ASSERT_EQ(streamConfigHash("ScriptBot", spec, opt),
              streamConfigHash("ScriptBot", wide, opt));
    const CaptureTrace trace =
        capture("ScriptBot", scriptedRun, spec, opt).trace;
    ASSERT_TRUE(trace.validate());

    const RunResult at_spec = scriptedRun(spec, opt);
    const RunResult at_wide = scriptedRun(wide, opt);
    // The discounts bite, and the line size moves the wall.
    EXPECT_LT(at_spec.wallCycles, at_spec.workCycles);
    EXPECT_NE(at_spec.wallCycles, at_wide.wallCycles);
    for (const auto &[name, machine, direct] :
         {std::tuple{"capture config", spec, at_spec},
          std::tuple{"64 B lines", wide, at_wide}}) {
        SCOPED_TRACE(name);
        const RunResult replayed =
            tartan::workloads::replayTrace(trace, machine, opt);
        EXPECT_EQ(replayed.wallCycles, direct.wallCycles);
        expectIdentical(direct, replayed);
    }
}

TEST(ReplayEquivalence, EveryRobotReplaysExactlyAtTheCaptureConfig)
{
    // Randomised (but reproducible) workload seeds: equivalence must
    // hold for arbitrary seeds, not just the suite default. Both
    // machines: the Tartan one enables ANL, OVEC, FCP and the NPU,
    // which the baseline leaves off.
    std::mt19937_64 rng(20260809);
    const std::pair<const char *, MachineSpec> machines[] = {
        {"baseline", MachineSpec::baseline()},
        {"tartan", MachineSpec::tartan()}};
    for (const auto &[machine, spec] : machines) {
        for (const auto &robot : tartan::workloads::robotSuite()) {
            WorkloadOptions opt;
            opt.tier = SoftwareTier::Optimized;
            opt.scale = 0.25;
            opt.seed = rng() % 10000;

            const RunResult direct = robot.run(spec, opt);
            const CaptureTrace trace =
                capture(robot.name, robot.run, spec, opt).trace;
            ASSERT_TRUE(trace.validate());
            const RunResult replayed =
                tartan::workloads::replayTrace(trace, spec, opt);

            SCOPED_TRACE(std::string(robot.name) + " on " + machine +
                         " seed " + std::to_string(opt.seed));
            expectIdentical(direct, replayed);

            // Payload byte-identity is the CI contract, so assert
            // exactly that — the encoded cell payloads must match bit
            // for bit.
            EXPECT_EQ(tartan::workloads::encodeRunResult(replayed),
                      tartan::workloads::encodeRunResult(direct));
        }
    }
}

TEST(ReplayEquivalence, TimingOnlyMachineChangesReplayExactly)
{
    // The point of the engine: capture once, sweep timing knobs. An
    // ANL-equipped machine reorders nothing in the op stream, so the
    // replay must match a direct run on that machine exactly.
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 123;
    const MachineSpec base = MachineSpec::baseline();

    MachineSpec anl = base;
    anl.useAnl = true;

    for (const auto &robot : tartan::workloads::robotSuite()) {
        if (std::string(robot.name) != "MoveBot" &&
            std::string(robot.name) != "CarriBot")
            continue; // two representatives keep the test fast
        ASSERT_EQ(streamConfigHash(robot.name, base, opt),
                  streamConfigHash(robot.name, anl, opt));
        const CaptureTrace trace =
            capture(robot.name, robot.run, base, opt).trace;
        const RunResult direct = robot.run(anl, opt);
        const RunResult replayed =
            tartan::workloads::replayTrace(trace, anl, opt);
        SCOPED_TRACE(robot.name);
        expectIdentical(direct, replayed);
    }
}

TEST(ReplayEquivalence, NpuConfigSweepsReplayExactly)
{
    // NPU stall charges depend on NpuConfig, the one sweepable knob
    // that shapes op *arguments*: the capture records semantic
    // configure/infer events and replay recomputes the charges, so a
    // PE-count sweep must still match direct runs exactly.
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Approximate;
    opt.scale = 0.25;
    opt.seed = 99;
    const MachineSpec cap_spec = MachineSpec::tartan();
    const CaptureTrace trace =
        capture("PatrolBot", tartan::workloads::runPatrolBot, cap_spec, opt)
            .trace;

    for (std::uint32_t pes : {2u, 8u}) {
        MachineSpec swept = cap_spec;
        swept.npuCfg.pes = pes;
        ASSERT_EQ(streamConfigHash("PatrolBot", cap_spec, opt),
                  streamConfigHash("PatrolBot", swept, opt));
        const RunResult direct =
            tartan::workloads::runPatrolBot(swept, opt);
        const RunResult replayed =
            tartan::workloads::replayTrace(trace, swept, opt);
        SCOPED_TRACE("pes " + std::to_string(pes));
        expectIdentical(direct, replayed);
    }
}

TEST(ReplayEquivalence, SequenceShapingChangesAreIncompatible)
{
    const MachineSpec base = MachineSpec::baseline();
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    const std::uint64_t key = streamConfigHash("MoveBot", base, opt);
    EXPECT_EQ(key, streamConfigHash("MoveBot", base, opt));
    EXPECT_NE(key, streamConfigHash("DeliBot", base, opt));

    MachineSpec ovec = base;
    ovec.ovec = true; // different kernels run: different op stream
    EXPECT_NE(key, streamConfigHash("MoveBot", ovec, opt));

    WorkloadOptions other_seed = opt;
    other_seed.seed = opt.seed + 1;
    EXPECT_NE(key, streamConfigHash("MoveBot", base, other_seed));

    WorkloadOptions other_tier = opt;
    other_tier.tier = SoftwareTier::Legacy;
    EXPECT_NE(key, streamConfigHash("MoveBot", base, other_tier));

    // Observation hooks see events replay does not re-raise: they are
    // not part of any stream, and a capture with one refuses to run.
    WorkloadOptions faulted = opt;
    tartan::sim::FaultInjector injector(tartan::sim::FaultPlan{}, 1);
    faulted.faults = &injector;
    EXPECT_EQ(key, streamConfigHash("MoveBot", base, faulted));
    EXPECT_DEATH(capture("MoveBot", tartan::workloads::runMoveBot, base,
                         faulted),
                 "hook replay cannot honour");
}

namespace {

/**
 * Capture @p robot on the main thread and on a second thread, and
 * expect the two captures to differ only in host addresses and to
 * replay to one result. Returns the main-thread capture.
 */
CaptureTrace
expectThreadCapturesDifferOnlyInHostAddresses(std::string_view robot,
                                              RobotFn run,
                                              const MachineSpec &spec,
                                              const WorkloadOptions &opt)
{
    CaptureTrace here = capture(robot, run, spec, opt).trace;
    const CaptureTrace there =
        std::async(std::launch::async, [&] {
            return capture(robot, run, spec, opt).trace;
        }).get();
    EXPECT_TRUE(here.validate());
    EXPECT_TRUE(there.validate());
    EXPECT_EQ(here.records.size(), there.records.size());
    EXPECT_EQ(here.aux.size(), there.aux.size());
    if (here.records.size() != there.records.size() ||
        here.aux.size() != there.aux.size())
        return here;

    std::vector<bool> lane_bytes(here.aux.size(), false);
    std::size_t record_diffs = 0;
    for (std::size_t i = 0; i < here.records.size(); ++i) {
        CapRecord a = here.records[i];
        CapRecord b = there.records[i];
        const auto op = CapOp(a.op);
        if (op == CapOp::Load || op == CapOp::Store ||
            op == CapOp::VecLoadContiguous || op == CapOp::MapSegment ||
            op == CapOp::WriteThroughRange || op == CapOp::NoAllocateRange)
            a.b = b.b = 0; // a host address
        record_diffs += std::memcmp(&a, &b, sizeof a) != 0;
        if (op == CapOp::DeviceLoadLanes || op == CapOp::VecLoadLanes)
            std::fill_n(lane_bytes.begin() + std::ptrdiff_t(a.d),
                        8 * std::size_t(a.a32), true);
    }
    EXPECT_EQ(record_diffs, 0u) << "records differ beyond host addresses";
    std::size_t aux_diffs = 0;
    for (std::size_t i = 0; i < here.aux.size(); ++i)
        aux_diffs += !lane_bytes[i] && here.aux[i] != there.aux[i];
    EXPECT_EQ(aux_diffs, 0u) << "aux bytes differ beyond lane addresses";

    MachineSpec wide = spec;
    wide.sys.lineBytes = 64;
    EXPECT_EQ(tartan::workloads::encodeRunResult(
                  tartan::workloads::replayTrace(here, wide, opt)),
              tartan::workloads::encodeRunResult(
                  tartan::workloads::replayTrace(there, wide, opt)));
    return here;
}

} // namespace

TEST(ReplayEquivalence, CapturesOnTwoThreadsDifferOnlyInHostAddresses)
{
    // A capture records host addresses, which move with the thread's
    // malloc arena and stack (and with ASLR), so captures of one stream
    // on the main thread and on a second thread (std::async) are not
    // byte-identical. Everything else is: the records differ only in
    // the address field of the address-bearing ops and the aux bytes
    // only in lane address payloads, and both replay to the same
    // result, because replay translates host addresses in first-touch
    // order.
    WorkloadOptions opt;
    opt.scale = 0.25;
    {
        SCOPED_TRACE("HomeBot on the baseline");
        expectThreadCapturesDifferOnlyInHostAddresses(
            "HomeBot", tartan::workloads::runHomeBot,
            MachineSpec::baseline(), opt);
    }
    {
        // HomeBot emits no lane record; DeliBot's OVEC ray casts on
        // Tartan emit thousands, so the lane-masking branch runs.
        SCOPED_TRACE("DeliBot on Tartan");
        const CaptureTrace deli =
            expectThreadCapturesDifferOnlyInHostAddresses(
                "DeliBot", tartan::workloads::runDeliBot,
                MachineSpec::tartan(), opt);
        std::size_t lane_records = 0;
        for (const CapRecord &r : deli.records)
            lane_records += CapOp(r.op) == CapOp::DeviceLoadLanes ||
                            CapOp(r.op) == CapOp::VecLoadLanes;
        EXPECT_GT(lane_records, 0u);
    }
}

// ---------------------------------------------------------------------------
// Capture accounting: one execution, many replays
// ---------------------------------------------------------------------------

TEST(CaptureAccounting, OneExecutionServesManyReplays)
{
    ASSERT_EQ(tartan::sim::RunEnv::get().captureDir, captureRoot.path());

    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 4242;
    const MachineSpec base = MachineSpec::baseline();

    auto &stats = tartan::sim::captureStats();
    const std::uint64_t captures0 = stats.captures.load();

    CaptureSource src("DeliBot", tartan::workloads::runDeliBot, base,
                      opt);
    const RunResult direct = tartan::workloads::runDeliBot(base, opt);

    // Three timing sweeps off one acquisition: exactly one execution.
    std::vector<RunResult> replays;
    for (int i = 0; i < 3; ++i) {
        MachineSpec swept = base;
        swept.useAnl = (i > 0);
        swept.anlCfg.entries = 8u << i;
        auto trace = src.acquire();
        replays.push_back(
            tartan::workloads::replayTrace(*trace, swept, opt));
    }
    EXPECT_EQ(stats.captures.load(), captures0 + 1);
    expectIdentical(direct, replays[0]);

    // The capture persisted under its content address; a fresh source
    // (a later process, modelled by a new object) loads the file
    // instead of re-executing the robot.
    const std::uint64_t hits0 = stats.fileHits.load();
    CaptureSource fresh("DeliBot", tartan::workloads::runDeliBot, base,
                        opt);
    auto loaded = fresh.acquire();
    EXPECT_EQ(stats.fileHits.load(), hits0 + 1);
    EXPECT_EQ(stats.captures.load(), captures0 + 1);
    expectIdentical(direct, tartan::workloads::replayTrace(*loaded, base,
                                                           opt));
}

TEST(CaptureAccounting, CorruptPersistedCaptureIsRecaptured)
{
    ASSERT_EQ(tartan::sim::RunEnv::get().captureDir, captureRoot.path());
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 777;
    const MachineSpec base = MachineSpec::baseline();

    auto &stats = tartan::sim::captureStats();
    CaptureSource first("FlyBot", tartan::workloads::runFlyBot, base,
                        opt);
    (void)first.acquire();

    // Find the persisted file and flip a body byte: the next source
    // must reject it, warn, and re-execute the robot.
    fs::path victim;
    for (const auto &e : fs::directory_iterator(captureRoot.path()))
        if (e.path().string().find("_777.tcap") != std::string::npos)
            victim = e.path();
    ASSERT_FALSE(victim.empty());
    std::string bytes = slurp(victim);
    bytes[bytes.size() / 2] ^= 0x01;
    spit(victim, bytes);

    const std::uint64_t captures0 = stats.captures.load();
    const std::uint64_t hits0 = stats.fileHits.load();
    CaptureSource second("FlyBot", tartan::workloads::runFlyBot, base,
                         opt);
    auto trace = second.acquire();
    EXPECT_EQ(stats.fileHits.load(), hits0);
    EXPECT_EQ(stats.captures.load(), captures0 + 1);

    const RunResult direct = tartan::workloads::runFlyBot(base, opt);
    expectIdentical(direct, tartan::workloads::replayTrace(*trace, base,
                                                           opt));
}

TEST(CaptureAccounting, OtherTimingConfigLoadsTheStreamsCapture)
{
    // Captures are keyed by stream, not by timing config: a source
    // declared on an ANL machine loads the file a baseline source
    // recorded for the same stream, and its replay is the direct run.
    ASSERT_EQ(tartan::sim::RunEnv::get().captureDir, captureRoot.path());
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 6006;
    const MachineSpec base = MachineSpec::baseline();
    MachineSpec anl = base;
    anl.useAnl = true;

    auto &stats = tartan::sim::captureStats();
    CaptureSource recorder("MoveBot", tartan::workloads::runMoveBot, base,
                           opt);
    (void)recorder.acquire();

    const std::uint64_t captures0 = stats.captures.load();
    const std::uint64_t hits0 = stats.fileHits.load();
    CaptureSource on_anl("MoveBot", tartan::workloads::runMoveBot, anl,
                         opt);
    EXPECT_EQ(on_anl.streamHash(), recorder.streamHash());
    const auto trace = on_anl.acquire();
    EXPECT_EQ(stats.fileHits.load(), hits0 + 1);
    EXPECT_EQ(stats.captures.load(), captures0);
    expectIdentical(tartan::workloads::runMoveBot(anl, opt),
                    tartan::workloads::replayTrace(*trace, anl, opt));
}

TEST(CaptureAccounting, ReplayCellReplaysCompatibleCellsAndRejectsOthers)
{
    ASSERT_EQ(tartan::sim::RunEnv::get().captureDir, captureRoot.path());
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 5150;
    const MachineSpec base = MachineSpec::baseline();
    MachineSpec anl = base;
    anl.useAnl = true;
    MachineSpec ovec = base;
    ovec.ovec = true;

    auto &stats = tartan::sim::captureStats();
    CaptureSource src("MoveBot", tartan::workloads::runMoveBot, base,
                      opt);

    // A timing-only change replays: one capture, one replay, and the
    // direct run's result.
    const std::uint64_t captures0 = stats.captures.load();
    const std::uint64_t replays0 = stats.replays.load();
    const auto replayed = tartan::bench::replayCell(src, "anl", anl);
    expectIdentical(tartan::workloads::runMoveBot(anl, opt),
                    replayed.fn());
    EXPECT_EQ(stats.captures.load(), captures0 + 1);
    EXPECT_EQ(stats.replays.load(), replays0 + 1);

    // OVEC runs different kernels, another stream: no cell replays
    // this capture there.
    EXPECT_DEATH(tartan::bench::replayCell(src, "ovec", ovec),
                 "not on its capture's stream");
}

TEST(CaptureAccounting, ReplaysAreCountedPerReplayedStream)
{
    ASSERT_EQ(tartan::sim::RunEnv::get().captureDir, captureRoot.path());
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 5150;
    const MachineSpec base = MachineSpec::baseline();
    CaptureSource src("MoveBot", tartan::workloads::runMoveBot, base,
                      opt);
    const auto trace = src.acquire();

    // Replays are counted where they happen, not by the sweep helper
    // that schedules them: a fleet run replays one stream per core.
    auto &stats = tartan::sim::captureStats();
    const std::uint64_t replays0 = stats.replays.load();
    tartan::workloads::replayTrace(*trace, base, opt);
    EXPECT_EQ(stats.replays.load(), replays0 + 1);
    const auto fleet = tartan::workloads::replayFleet(
        {trace.get(), trace.get()}, base, opt);
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(stats.replays.load(), replays0 + 3);
}

// ---------------------------------------------------------------------------
// Resume mix: replayed cells are stored and resume byte-identically
// ---------------------------------------------------------------------------

TEST(ReplayEquivalence, ResumeMixReplaysJournaledCellsByteIdentically)
{
    const fs::path dir = scratchDir("resume_mix");
    tartan::sim::CampaignConfig cfg;
    cfg.resume = true;
    cfg.journalDir = dir.string();
    cfg.retries = 0;
    const std::uint64_t schema =
        tartan::workloads::cellSchemaVersion();

    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 31;
    const MachineSpec base = MachineSpec::baseline();
    MachineSpec anl = base;
    anl.useAnl = true;

    const auto direct_cell = [&] {
        return tartan::workloads::encodeRunResult(
            tartan::workloads::runCarriBot(base, opt));
    };
    CaptureSource src("CarriBot", tartan::workloads::runCarriBot, base,
                      opt);
    const auto replay_cell = [&] {
        auto trace = src.acquire();
        return tartan::workloads::encodeRunResult(
            tartan::workloads::replayTrace(*trace, anl, opt));
    };

    // First sweep mixes a direct and a replayed cell.
    std::vector<std::string> payloads;
    {
        tartan::sim::RunPool pool(1);
        tartan::sim::CampaignRunner runner("mix", pool, cfg, schema);
        runner.submit(tartan::sim::CellSpec{"direct", 1, opt.seed, true},
                      direct_cell);
        runner.submit(tartan::sim::CellSpec{"replayed", 2, opt.seed,
                                            true},
                      replay_cell);
        for (const auto &out : runner.gather())
            payloads.push_back(out.payload);
        EXPECT_EQ(runner.stats().simulated, 2u);
    }

    // The replayed cell's payload must equal the direct run at the
    // same machine config — replay is invisible to the resume store.
    EXPECT_EQ(payloads[1],
              tartan::workloads::encodeRunResult(
                  tartan::workloads::runCarriBot(anl, opt)));

    // Resume: the resume store serves both cells, closures never run.
    {
        tartan::sim::RunPool pool(1);
        tartan::sim::CampaignRunner runner("mix", pool, cfg, schema);
        runner.submit(tartan::sim::CellSpec{"direct", 1, opt.seed, true},
                      []() -> std::string {
                          ADD_FAILURE() << "journal hit re-simulated";
                          return "{}";
                      });
        runner.submit(tartan::sim::CellSpec{"replayed", 2, opt.seed,
                                            true},
                      []() -> std::string {
                          ADD_FAILURE() << "journal hit re-simulated";
                          return "{}";
                      });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().journalHits, 2u);
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_EQ(outcomes[0].payload, payloads[0]);
        EXPECT_EQ(outcomes[1].payload, payloads[1]);
    }
}
