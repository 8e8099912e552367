/**
 * @file
 * Unit tests for the multi-core coherent machine: MESI line states on
 * the Cache, snoop invalidation/downgrade and dirty forwarding through
 * the Uncore, crossbar and banked-DRAM latency math, the coherence CPI
 * category, and fleet-replay determinism (serial vs parallel pools,
 * N=1 vs the single-core replay path, run-ahead vs a reference
 * scheduler that steps one record at a time).
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "sim/cache.hh"
#include "sim/rng.hh"
#include "sim/runpool.hh"
#include "sim/system.hh"
#include "sim/uncore.hh"
#include "workloads/cellcodec.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

namespace {

using namespace tartan::sim;

CacheParams
smallCache(std::uint32_t size, std::uint32_t assoc, std::uint32_t line)
{
    CacheParams p;
    p.sizeBytes = size;
    p.assoc = assoc;
    p.lineBytes = line;
    p.latency = 4;
    return p;
}

// ---------------------------------------------------------------------------
// Cache-level MESI state machinery
// ---------------------------------------------------------------------------

TEST(Mesi, LineStateLifecycle)
{
    Cache c(smallCache(1024, 2, 64));
    EXPECT_EQ(c.lineState(0x1000), MesiState::Invalid);
    c.fill(0x1000);
    EXPECT_EQ(c.lineState(0x1000), MesiState::Exclusive);
    c.access(0x1000, AccessType::Store, 4);  // sets the dirty bit
    EXPECT_EQ(c.lineState(0x1000), MesiState::Modified);
}

TEST(Mesi, MarkSharedAndClearShared)
{
    Cache c(smallCache(1024, 2, 64));
    c.fill(0x2000);
    c.markShared(0x2000);
    EXPECT_EQ(c.lineState(0x2000), MesiState::Shared);
    c.clearShared(0x2000);
    EXPECT_EQ(c.lineState(0x2000), MesiState::Exclusive);
    // A dirty line is Modified regardless of the shared mark.
    c.access(0x2000, AccessType::Store, 4);
    c.markShared(0x2000);
    EXPECT_EQ(c.lineState(0x2000), MesiState::Modified);
}

TEST(Mesi, SnoopDowngradeDemotesAndReportsDirty)
{
    Cache c(smallCache(1024, 2, 64));
    c.fill(0x3000);
    c.access(0x3000, AccessType::Store, 4);
    ASSERT_EQ(c.lineState(0x3000), MesiState::Modified);
    bool was_dirty = false;
    EXPECT_TRUE(c.snoopDowngrade(0x3000, &was_dirty));
    EXPECT_TRUE(was_dirty);
    EXPECT_EQ(c.lineState(0x3000), MesiState::Shared);
    // Downgrading an absent line is a no-op that reports no copy.
    EXPECT_FALSE(c.snoopDowngrade(0x4000, &was_dirty));
}

TEST(Mesi, SnoopInvalidateRemovesTheLine)
{
    Cache c(smallCache(1024, 2, 64));
    c.fill(0x5000);
    bool was_dirty = true;
    EXPECT_TRUE(c.snoopInvalidate(0x5000, &was_dirty));
    EXPECT_FALSE(was_dirty);  // the line was clean (Exclusive)
    EXPECT_EQ(c.lineState(0x5000), MesiState::Invalid);
    EXPECT_FALSE(c.access(0x5000, AccessType::Load, 4).hit);
}

// ---------------------------------------------------------------------------
// System-level coherence: two cores, true sharing via host addresses
// ---------------------------------------------------------------------------

namespace {

SysConfig
dualCore()
{
    SysConfig cfg;
    cfg.simCores = 2;
    return cfg;
}

} // namespace

TEST(Coherence, RemoteReadDowngradesToShared)
{
    System sys(dualCore());
    ASSERT_NE(sys.uncore(), nullptr);
    // Core 0 brings the line into its private hierarchy (Exclusive).
    sys.mem(0).access(0x10000, AccessType::Load, 4, 1, 0);
    ASSERT_EQ(sys.mem(0).l1().lineState(0x10000), MesiState::Exclusive);

    // Core 1 reads the same line: core 0's copies demote to Shared and
    // core 1 pays the snoop round (tagged as coherence latency).
    const auto res = sys.mem(1).access(0x10000, AccessType::Load, 4, 1, 0);
    EXPECT_EQ(res.coherenceCycles, sys.config().uncore.coherenceLatency);
    EXPECT_EQ(sys.mem(0).l1().lineState(0x10000), MesiState::Shared);
    EXPECT_EQ(sys.mem(1).l1().lineState(0x10000), MesiState::Shared);
    const CoherenceStats &cs = sys.uncore()->coherence();
    EXPECT_EQ(cs.snoops, 1u);
    EXPECT_EQ(cs.downgrades, 2u);  // core 0's L1 and L2 copies
    EXPECT_EQ(cs.sharedFills, 1u);
    EXPECT_EQ(cs.invalidations, 0u);
}

TEST(Coherence, RemoteWriteInvalidates)
{
    System sys(dualCore());
    sys.mem(0).access(0x20000, AccessType::Load, 4, 1, 0);
    // Core 1 writes the line: core 0's copies must be invalidated.
    sys.mem(1).access(0x20000, AccessType::Store, 4, 1, 0);
    EXPECT_EQ(sys.mem(0).l1().lineState(0x20000), MesiState::Invalid);
    EXPECT_EQ(sys.mem(0).l2().lineState(0x20000), MesiState::Invalid);
    const CoherenceStats &cs = sys.uncore()->coherence();
    EXPECT_EQ(cs.invalidations, 2u);  // L1 + L2 copy
    // A later read by core 0 misses again (the copy is gone).
    EXPECT_GT(sys.mem(0)
                  .access(0x20000, AccessType::Load, 4, 1, 0)
                  .latency,
              sys.config().l1Latency);
}

TEST(Coherence, DirtyLineForwardsThroughL3)
{
    System sys(dualCore());
    // Core 0 dirties the line in its private L1.
    sys.mem(0).access(0x30000, AccessType::Store, 4, 1, 0);
    ASSERT_EQ(sys.mem(0).l1().lineState(0x30000), MesiState::Modified);

    const std::uint64_t dram_before = sys.mem(1).stats.dramReads;
    sys.mem(1).access(0x30000, AccessType::Load, 4, 1, 0);
    const CoherenceStats &cs = sys.uncore()->coherence();
    EXPECT_EQ(cs.dirtyForwards, 1u);
    // The forward installed the line in the shared L3, so core 1's
    // fetch was satisfied there — no DRAM read.
    EXPECT_EQ(sys.mem(1).stats.dramReads, dram_before);
    // The writer's copy survives, demoted to Shared and now clean.
    EXPECT_EQ(sys.mem(0).l1().lineState(0x30000), MesiState::Shared);
}

TEST(Coherence, StoreToSharedLineUpgrades)
{
    System sys(dualCore());
    sys.mem(0).access(0x40000, AccessType::Load, 4, 1, 0);
    sys.mem(1).access(0x40000, AccessType::Load, 4, 1, 0);
    ASSERT_EQ(sys.mem(0).l1().lineState(0x40000), MesiState::Shared);

    // Core 0 stores to its Shared copy: ownership must be acquired
    // (upgrade), and core 1's copies must disappear.
    const auto res =
        sys.mem(0).access(0x40000, AccessType::Store, 4, 1, 0);
    EXPECT_GE(res.coherenceCycles,
              sys.config().uncore.coherenceLatency);
    EXPECT_EQ(sys.mem(0).l1().lineState(0x40000), MesiState::Modified);
    EXPECT_EQ(sys.mem(1).l1().lineState(0x40000), MesiState::Invalid);
    EXPECT_EQ(sys.mem(1).l2().lineState(0x40000), MesiState::Invalid);
    EXPECT_EQ(sys.uncore()->coherence().upgrades, 1u);
}

TEST(Coherence, DependentLoadChargesTheCoherenceCpiCategory)
{
    System sys(dualCore());
    sys.core(0).load(0x50000, 1, MemDep::Dependent);
    sys.core(1).load(0x50000, 1, MemDep::Dependent);
    const CpiStack &cpi = sys.core(1).cpiTotals();
    EXPECT_EQ(cpi[CpiCat::Coherence],
              sys.config().uncore.coherenceLatency);
    EXPECT_EQ(cpi.sum(), sys.core(1).cycles());
}

TEST(Coherence, RandomTrueSharingKeepsCounterInvariants)
{
    // Every core walks one shared 2 MB range: half the accesses extend
    // the core's own sequential run (prefetcher food), half jump to a
    // random line, and 30% are stores. Remote copies are snooped,
    // invalidated and forwarded dirty all the time, including lines a
    // prefetcher filled and nobody has read yet.
    constexpr Addr kBase = 0x4000000;
    constexpr std::uint64_t kLines = (2u << 20) / 64;
    constexpr int kAccesses = 60000;
    for (const PrefetcherKind pf : {PrefetcherKind::None,
                                    PrefetcherKind::NextLine,
                                    PrefetcherKind::Bingo}) {
        for (const std::uint32_t cores : {2u, 4u}) {
            SCOPED_TRACE(testing::Message() << "prefetcher "
                                            << int(pf) << ", " << cores
                                            << " cores");
            SysConfig cfg;
            cfg.simCores = cores;
            cfg.prefetcher = pf;
            System sys(cfg);
            Rng rng(0x5eed + cores);
            std::vector<std::uint64_t> cursor(cores, 0);
            for (int i = 0; i < kAccesses; ++i) {
                const std::size_t c = rng.uniformInt(cores);
                cursor[c] = rng.uniform() < 0.5 ? (cursor[c] + 1) % kLines
                                                : rng.uniformInt(kLines);
                const Addr addr = kBase + cursor[c] * 64;
                const PcId pc = PcId(1 + c);
                if (rng.uniform() < 0.3)
                    sys.core(c).store(addr, pc);
                else
                    sys.core(c).load(addr, pc);
            }
            const CoherenceStats &cs = sys.uncore()->coherence();
            EXPECT_GT(cs.snoops, 0u);
            EXPECT_GT(cs.invalidations, 0u);
            EXPECT_GT(cs.dirtyForwards, 0u);
            sys.checkInvariants();
        }
    }
}

// ---------------------------------------------------------------------------
// Crossbar and banked-DRAM latency models
// ---------------------------------------------------------------------------

TEST(Uncore, XbarCostIsRingDistanceTimesHopLatency)
{
    UncoreParams p;  // 4 slices, hop latency 3
    Cache l3(smallCache(4096, 4, 64));
    Uncore u(p, &l3);
    // Slice = (line / L3 lineBytes) % slices; port = core % slices.
    EXPECT_EQ(u.xbarCost(0, 0), 3u);        // distance 0: entry hop only
    EXPECT_EQ(u.xbarCost(0, 64), 6u);       // slice 1, distance 1
    EXPECT_EQ(u.xbarCost(0, 128), 9u);      // slice 2, across the ring
    EXPECT_EQ(u.xbarCost(0, 192), 6u);      // slice 3, one hop backwards
    EXPECT_EQ(u.maxXbarCost(), 9u);
    // Deterministic: the same traversal always costs the same.
    EXPECT_EQ(u.xbarCost(2, 192), u.xbarCost(2, 192));
    EXPECT_EQ(u.xbar().traversals, 6u);

    // Slices interleave at the shared L3's own line size: with 32 B
    // lines, address 64 is line 2 and lives two slices away.
    Cache l3_32(smallCache(4096, 4, 32));
    Uncore u32(p, &l3_32);
    EXPECT_EQ(u32.xbarCost(0, 32), 6u);   // slice 1
    EXPECT_EQ(u32.xbarCost(0, 64), 9u);   // slice 2
    EXPECT_EQ(u32.xbarCost(0, 96), 6u);   // slice 3
    EXPECT_EQ(u32.xbarCost(0, 128), 3u);  // slice 0 again
}

TEST(Uncore, BankConflictDelaysAndRowHitsJumpTheQueue)
{
    UncoreParams p;  // 8 banks, 2 KB rows, 160/230 hit/miss latency
    Cache l3(smallCache(4096, 4, 64));
    Uncore u(p, &l3);

    // Cold bank, cold row: full row-miss service, no wait.
    EXPECT_EQ(u.dramRead(0, 0), p.dramRowMissLatency);
    EXPECT_EQ(u.memctrl().bankConflicts, 0u);

    // Same bank, same row, bank still busy: the row hit joins the open
    // burst — half the queue wait plus the row-hit service.
    const Cycles hit = u.dramRead(64, 0);
    EXPECT_EQ(hit, p.dramRowMissLatency / 2 + p.dramRowHitLatency);
    EXPECT_EQ(u.memctrl().rowHits, 1u);

    // Different row of the same bank while busy: a real conflict —
    // full wait plus row-miss service.
    Uncore u2(p, &l3);
    EXPECT_EQ(u2.dramRead(0, 0), p.dramRowMissLatency);
    const Addr other_row = Addr(p.dramRowBytes) * p.dramBanks;
    EXPECT_EQ(u2.dramRead(other_row, 0),
              p.dramRowMissLatency + p.dramRowMissLatency);
    EXPECT_EQ(u2.memctrl().bankConflicts, 1u);
    EXPECT_EQ(u2.memctrl().conflictCycles, p.dramRowMissLatency);

    // Writes occupy the bank but charge the requester nothing.
    Uncore u3(p, &l3);
    u3.dramWrite(0, 0);
    EXPECT_EQ(u3.memctrl().writes, 1u);
    EXPECT_GT(u3.dramRead(64, 0), p.dramRowHitLatency);
}

// ---------------------------------------------------------------------------
// Fleet replay determinism
// ---------------------------------------------------------------------------

namespace {

using tartan::workloads::FleetUncoreSnapshot;
using tartan::workloads::MachineSpec;
using tartan::workloads::ReplayStream;
using tartan::workloads::RunResult;
using tartan::workloads::WorkloadOptions;
using tartan::workloads::capture;
using tartan::workloads::encodeRunResult;

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.robot, b.robot);
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.workCycles, b.workCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Traffic, b.l3Traffic);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].cycles, b.kernels[i].cycles);
        EXPECT_TRUE(a.kernels[i].cpi == b.kernels[i].cpi);
    }
}

/**
 * The reference fleet scheduler: before every record, scan all streams
 * and step the one whose core clock is lowest, ties toward the lower
 * core index. replayFleet() must reproduce it exactly while running
 * private records ahead.
 */
std::vector<RunResult>
referenceFleet(const std::vector<const CaptureTrace *> &traces,
               const MachineSpec &spec, const WorkloadOptions &opt,
               FleetUncoreSnapshot *uncore)
{
    MachineSpec fspec = spec;
    fspec.sys.simCores = std::uint32_t(traces.size());
    tartan::workloads::Machine machine(fspec, opt);
    std::vector<std::unique_ptr<ReplayStream>> streams;
    for (std::size_t i = 0; i < traces.size(); ++i)
        streams.push_back(
            std::make_unique<ReplayStream>(*traces[i], machine, i));
    for (;;) {
        ReplayStream *best = nullptr;
        for (auto &s : streams)
            if (!s->done() && (!best || s->cycles() < best->cycles()))
                best = s.get();
        if (!best)
            break;
        best->step();
    }
    std::vector<RunResult> results;
    for (auto &s : streams)
        results.push_back(s->finalize());
    const Uncore *u = machine.system().uncore();
    *uncore = u ? FleetUncoreSnapshot{u->coherence(), u->xbar(),
                                      u->memctrl()}
                : FleetUncoreSnapshot{};
    return results;
}

/**
 * A synthetic stream that makes the fleet's order visible: random
 * loads and stores over kGroups groups of kDepth lines, each group
 * 512 KB apart so its lines share one set at every level. The L1 and
 * L2 sets thrash (dirty L1 victims often miss a non-inclusive L2 that
 * has already dropped them), and N cores' groups overflow the shared
 * 16-way L3 set, so dirty L3 victims reach the DRAM banks and every
 * reordered L3 transaction moves some core's clock.
 */
CaptureTrace
setConflictStream(std::uint64_t seed, int records)
{
    constexpr Addr kBase = Addr(1) << 36;  // never dereferenced
    constexpr Addr kStride = 512 * 1024;
    constexpr std::uint64_t kGroups = 4, kDepth = 24;
    CaptureSession session(seed, seed);
    session.mapSegment(kBase, kDepth * kStride);
    session.registerKernel("conflict");
    session.setKernel(0);
    Rng rng(seed);
    std::uint64_t hot = 0;
    for (int i = 0; i < records; ++i) {
        // Mostly revisit a recent line (L1 and L2 hits), sometimes
        // jump anywhere in the groups (misses down to the L3).
        if (rng.uniform() < 0.3)
            hot = rng.uniformInt(kGroups * kDepth);
        const std::uint64_t line =
            rng.uniform() < 0.5 ? hot : (hot + rng.uniformInt(10)) %
                                            (kGroups * kDepth);
        const Addr addr =
            kBase + (line / kGroups) * kStride + (line % kGroups) * 64;
        if (rng.uniform() < 0.4)
            session.store(addr, PcId(1), 8);
        else
            session.load(addr, PcId(2), std::uint8_t(rng.uniformInt(2)),
                         8);
        session.exec(1 + rng.uniformInt(6), 0);
    }
    session.setRobot("ConflictBot");
    return session.take();
}

/**
 * replayFleet() equals referenceFleet() on every core and counter.
 * Returns the reference's uncore counters.
 */
FleetUncoreSnapshot
expectMatchesReference(const std::vector<const CaptureTrace *> &traces,
                       const MachineSpec &spec, const WorkloadOptions &opt)
{
    FleetUncoreSnapshot got, want;
    const std::vector<RunResult> fleet =
        tartan::workloads::replayFleet(traces, spec, opt, &got);
    const std::vector<RunResult> ref =
        referenceFleet(traces, spec, opt, &want);
    EXPECT_EQ(fleet.size(), ref.size());
    for (std::size_t c = 0; c < fleet.size() && c < ref.size(); ++c)
        EXPECT_EQ(encodeRunResult(fleet[c]), encodeRunResult(ref[c]))
            << "core " << c;
    EXPECT_TRUE(got == want) << "uncore counters differ";
    EXPECT_TRUE(got.coherence == CoherenceStats{});
    return want;
}

} // namespace

TEST(FleetReplay, SingleRobotFleetMatchesSingleCoreReplay)
{
    WorkloadOptions opt;
    opt.scale = 0.2;
    const MachineSpec spec = MachineSpec::baseline();
    const CaptureTrace trace =
        capture("DeliBot", tartan::workloads::runDeliBot, spec, opt).trace;

    const RunResult solo =
        tartan::workloads::replayTrace(trace, spec, opt);
    const std::vector<RunResult> fleet =
        tartan::workloads::replayFleet({&trace}, spec, opt);
    ASSERT_EQ(fleet.size(), 1u);
    // A fleet of one builds the historical single-core machine (no
    // uncore), so the result is bit-identical to a plain replay.
    expectSameResult(solo, fleet[0]);
}

TEST(FleetReplay, FleetIsDeterministicAcrossPoolWidths)
{
    WorkloadOptions opt;
    opt.scale = 0.2;
    const MachineSpec spec = MachineSpec::baseline();
    const CaptureTrace d =
        capture("DeliBot", tartan::workloads::runDeliBot, spec, opt).trace;
    const CaptureTrace h =
        capture("HomeBot", tartan::workloads::runHomeBot, spec, opt).trace;
    const std::vector<const CaptureTrace *> fleet = {&d, &h};

    // The same two-robot fleet replayed on a serial pool and a wide
    // pool (and twice in-process) must be bit-identical: deterministic
    // addressing plus the min-cycle-first interleave leave no room for
    // host scheduling to leak into simulated time.
    auto job = [&]() {
        return tartan::workloads::replayFleet(fleet, spec, opt);
    };
    std::vector<std::vector<RunResult>> runs;
    for (unsigned workers : {1u, 4u}) {
        RunPool pool(workers);
        std::vector<std::future<std::vector<RunResult>>> futs;
        for (int i = 0; i < 2; ++i)
            futs.push_back(pool.submit(job));
        for (auto &f : futs)
            runs.push_back(f.get());
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].size(), runs[0].size());
        for (std::size_t c = 0; c < runs[0].size(); ++c)
            expectSameResult(runs[0][c], runs[i][c]);
    }
    // Contention is real: the fleet run is never faster than solo.
    const RunResult solo = tartan::workloads::replayTrace(d, spec, opt);
    EXPECT_GE(runs[0][0].wallCycles, solo.wallCycles);
}

TEST(FleetReplay, RunAheadMatchesReferenceOrder)
{
    WorkloadOptions opt;
    opt.scale = 0.05;
    const MachineSpec base = MachineSpec::baseline();
    MachineSpec anl = base;
    anl.useAnl = true;
    MachineSpec bingo = base;
    bingo.sys.prefetcher = PrefetcherKind::Bingo;
    const MachineSpec tartan = MachineSpec::tartan();

    namespace wl = tartan::workloads;
    const CaptureTrace home =
        capture("HomeBot", wl::runHomeBot, base, opt).trace;
    const CaptureTrace deli =
        capture("DeliBot", wl::runDeliBot, base, opt).trace;
    const CaptureTrace move =
        capture("MoveBot", wl::runMoveBot, base, opt).trace;
    const std::vector<const CaptureTrace *> roster = {&home, &deli, &move};
    // OVEC's lane records are never proven private: they always wait
    // for their (clock, core) turn.
    const CaptureTrace deli_ovec =
        capture("DeliBot", wl::runDeliBot, tartan, opt).trace;
    std::size_t lane_records = 0;
    for (const CapRecord &r : deli_ovec.records)
        lane_records += CapOp(r.op) == CapOp::VecLoadLanes;
    ASSERT_GT(lane_records, 0u);
    std::vector<CaptureTrace> conflict;
    for (std::uint64_t i = 0; i < 8; ++i)
        conflict.push_back(setConflictStream(0xc0f1 + i, 10000));

    for (const std::size_t n : {2u, 3u, 4u, 8u}) {
        std::vector<const CaptureTrace *> same, mixed, ovec, sets;
        for (std::size_t i = 0; i < n; ++i) {
            same.push_back(&home);  // equal clocks on nearly every record
            mixed.push_back(roster[i % roster.size()]);
            ovec.push_back(&deli_ovec);
            sets.push_back(&conflict[i]);
        }
        SCOPED_TRACE(testing::Message() << "N=" << n);
        {
            SCOPED_TRACE("one trace on every core");
            expectMatchesReference(same, base, opt);
        }
        {
            SCOPED_TRACE("mixed robots");
            expectMatchesReference(mixed, base, opt);
        }
        {
            SCOPED_TRACE("mixed robots, ANL prefetcher");
            expectMatchesReference(mixed, anl, opt);
        }
        {
            SCOPED_TRACE("DeliBot on Tartan");
            expectMatchesReference(ovec, tartan, opt);
        }
        {
            SCOPED_TRACE("set-conflict streams");
            // Dirty L3 victims reach the banks: the L3 order is visible.
            EXPECT_GT(expectMatchesReference(sets, base, opt).memctrl.writes,
                      0u);
        }
        {
            // Bingo prefetches on L2 hits, through the conflicting L3.
            SCOPED_TRACE("set-conflict streams, Bingo prefetcher");
            expectMatchesReference(sets, bingo, opt);
        }
    }
}

} // namespace
