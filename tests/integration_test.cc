/**
 * @file
 * Cross-module integration tests: full kernels over the simulated
 * memory system, feature interactions (OVEC+ANL+FCP+NPU together),
 * write-through drain accounting, FCP-at-L3, and end-to-end AXAR
 * over the real FlyBot workload machinery.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/anl.hh"
#include "core/axar.hh"
#include "core/ovec.hh"
#include "robotics/collision.hh"
#include "robotics/geometry.hh"
#include "robotics/grid.hh"
#include "robotics/lsh.hh"
#include "robotics/mcl.hh"
#include "robotics/raycast.hh"
#include "sim/arena.hh"
#include "sim/system.hh"
#include "workloads/robots.hh"

namespace {

using namespace tartan;
using robotics::Mem;
using sim::Arena;
using sim::Rng;
using sim::SysConfig;
using sim::System;

// ------------------------------------------------- memory integration

TEST(Integration, WriteThroughEliminatesDirtyLines)
{
    SysConfig cfg;
    System wb(cfg), wt(cfg);
    Arena arena(1 << 20);
    float *buffer = arena.alloc<float>(4096);
    wt.mem().addWriteThroughRange(
        reinterpret_cast<sim::Addr>(buffer), 4096 * sizeof(float));

    for (int i = 0; i < 4096; ++i) {
        wb.core().store(reinterpret_cast<sim::Addr>(buffer + i), 1);
        wt.core().store(reinterpret_cast<sim::Addr>(buffer + i), 1);
    }
    wb.mem().drainDirty();
    wt.mem().drainDirty();
    EXPECT_GT(wb.mem().stats.l3Writebacks, 0u);
    EXPECT_EQ(wt.mem().stats.l3Writebacks, 0u);
    EXPECT_EQ(wt.mem().stats.wtStores, 4096u);
}

TEST(Integration, DrainCountsResidentDirtyLinesOnce)
{
    SysConfig cfg;
    System sys(cfg);
    sys.mem().mapSegment(0x10000, 0x20000 + 64);
    // Dirty exactly three distinct lines.
    sys.core().store(0x10000, 1);
    sys.core().store(0x20000, 1);
    sys.core().store(0x30000, 1);
    sys.mem().drainDirty();
    // The dirty copy lives in the L1 (the L2 fill is clean until the
    // L1 victim writes back).
    EXPECT_EQ(sys.mem().stats.l3Writebacks, 3u);
}

TEST(Integration, FcpAtL3Configures)
{
    SysConfig cfg;
    cfg.fcpEnabled = true;
    cfg.fcpAtL3 = true;
    System sys(cfg);
    ASSERT_TRUE(sys.l3().params().fcp.has_value());
    EXPECT_EQ(sys.l3().params().fcp, sys.mem().l2().params().fcp);
    // Functionality is unchanged: a miss/fill/hit cycle works.
    sys.core().load(0xabc000, 3);
    sys.core().load(0xabc000, 3);
    EXPECT_GT(sys.mem().l1().stats().hits, 0u);
}

TEST(Integration, FcpWithoutL3FlagLeavesL3Standard)
{
    SysConfig cfg;
    cfg.fcpEnabled = true;
    System sys(cfg);
    EXPECT_TRUE(sys.mem().l2().params().fcp.has_value());
    EXPECT_EQ(sys.l3().params().fcp, std::nullopt);
}

TEST(Integration, AnlCoversRepeatedBucketScansEndToEnd)
{
    // LSH bucket scans through the full simulated hierarchy: ANL must
    // cut the observed L2 misses of a second pass over the same
    // queries after capacity evictions.
    auto run = [&](bool use_anl) {
        SysConfig cfg;
        System sys(cfg);
        if (use_anl) {
            core::AnlConfig anl;
            anl.lineBytes = cfg.lineBytes;
            sys.mem().setPrefetcher(
                std::make_unique<core::AnlPrefetcher>(anl));
        }
        Mem mem(&sys.core());
        Rng rng(3);
        const std::uint32_t dim = 3;
        const std::size_t n = 3000;
        std::vector<float> pts(n * dim);
        for (auto &v : pts)
            v = float(rng.uniform());
        robotics::LshConfig lcfg;
        lcfg.bucketWidth = 0.6f;
        robotics::LshNns lsh(pts.data(), dim, lcfg, true);
        Mem untraced;
        for (std::uint32_t i = 0; i < n; ++i)
            lsh.insert(untraced, i);

        Arena arena(16 << 20);
        float *thrash = arena.alloc<float>(2 * 1024 * 1024 / 4);
        Rng qrng(7);
        std::vector<float> queries;
        for (int q = 0; q < 24; ++q)
            for (std::uint32_t d = 0; d < dim; ++d)
                queries.push_back(float(qrng.uniform()));
        for (int round = 0; round < 8; ++round) {
            for (int q = 0; q < 24; ++q)
                lsh.nearest(mem, queries.data() + q * dim);
            // Evict the buckets between rounds.
            for (int k = 0; k < 8000; ++k)
                sys.core().load(
                    reinterpret_cast<sim::Addr>(thrash + k * 68), 99);
        }
        return sys.mem().stats;
    };
    const auto without = run(false);
    const auto with = run(true);
    EXPECT_GT(with.pfIssued, 0u);
    EXPECT_GT(with.pfHitsTimely + with.pfHitsLate, 0u);
    (void)without;
}

// ------------------------------------------------ kernel interactions

TEST(Integration, OvecResultsUnaffectedByAnlAndFcp)
{
    // Hardware features must never change functional results.
    Arena arena(8 << 20);
    robotics::OccupancyGrid2D grid(256, 256, arena);
    Rng rng(5);
    grid.scatterObstacles(rng, 0.05, 5);
    core::OvecEngine ovec;
    robotics::RayConfig rc;
    rc.maxRange = 120;

    auto distances = [&](const SysConfig &cfg) {
        System sys(cfg);
        Mem mem(&sys.core());
        std::vector<double> out;
        for (int a = 0; a < 16; ++a)
            out.push_back(castRay(mem, grid, 100, 130,
                                  a * 2.0 * robotics::kPi / 16.0, rc,
                                  ovec));
        return out;
    };

    SysConfig plain;
    SysConfig full;
    full.fcpEnabled = true;
    full.fcpAtL3 = true;
    full.prefetcher = sim::PrefetcherKind::NextLine;
    EXPECT_EQ(distances(plain), distances(full));
}

TEST(Integration, MclWithOvecMatchesScalarEstimates)
{
    Arena arena(16 << 20);
    robotics::OccupancyGrid2D grid(256, 256, arena);
    Rng env(9);
    grid.scatterObstacles(env, 0.04, 6);

    auto estimate = [&](robotics::OrientedEngine &engine) {
        robotics::MclConfig cfg;
        cfg.particles = 64;
        cfg.raysPerScan = 8;
        cfg.ray.maxRange = 80;
        // A fresh arena per run so particle storage is identical.
        Arena particles(1 << 20);
        robotics::Mcl mcl(cfg, particles);
        Mem mem;
        Rng rng(11);
        robotics::Pose2 truth{80, 120, 0.4};
        mcl.init(truth, 5.0, rng);
        for (int s = 0; s < 4; ++s) {
            auto obs = mcl.scanFrom(mem, grid, truth, engine);
            mcl.correct(mem, grid, obs, engine);
            mcl.resample(mem, rng);
        }
        return mcl.estimate(mem);
    };
    robotics::ScalarOrientedEngine scalar;
    core::OvecEngine ovec;
    const auto a = estimate(scalar);
    const auto b = estimate(ovec);
    EXPECT_NEAR(a.x, b.x, 1e-9);
    EXPECT_NEAR(a.y, b.y, 1e-9);
}

TEST(Integration, FootprintSweepIdenticalAcrossEngines)
{
    Arena arena(8 << 20);
    robotics::OccupancyGrid2D grid(192, 192, arena);
    Rng rng(13);
    grid.scatterObstacles(rng, 0.06, 5);
    robotics::Footprint fp;
    fp.length = 12;
    fp.width = 4;
    robotics::ScalarOrientedEngine scalar;
    core::OvecEngine ovec;
    core::RacodEngine racod;
    Mem mem;
    int mismatches = 0;
    for (int i = 0; i < 200; ++i) {
        robotics::Pose2 pose{rng.uniform(16, 176), rng.uniform(16, 176),
                             rng.uniform(0, 2 * robotics::kPi)};
        const bool s = footprintCollides(mem, grid, pose, fp, scalar);
        if (footprintCollides(mem, grid, pose, fp, ovec) != s)
            ++mismatches;
        if (footprintCollides(mem, grid, pose, fp, racod) != s)
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
}

// -------------------------------------------------- workload-level

TEST(Integration, TartanNeverChangesRobotMetrics)
{
    // The full Tartan feature set (OVEC+ANL+FCP, same software tier)
    // must not alter any algorithmic outcome, only the cycle counts.
    using namespace tartan::workloads;
    WorkloadOptions opt;
    opt.scale = 0.35;
    opt.tier = SoftwareTier::Optimized;
    auto base_spec = MachineSpec::baseline();
    auto tartan_spec = MachineSpec::tartan();
    tartan_spec.npu = false;  // exact tier: NPU unused anyway
    for (const auto &robot : robotSuite()) {
        auto a = robot.run(base_spec, opt);
        auto b = robot.run(tartan_spec, opt);
        EXPECT_EQ(a.metrics, b.metrics) << robot.name;
    }
}

TEST(Integration, ApproximateTierIsNeverSlowerOnTartan)
{
    using namespace tartan::workloads;
    WorkloadOptions opt;
    opt.scale = 0.5;
    for (const auto &robot : robotSuite()) {
        opt.tier = SoftwareTier::Optimized;
        auto exact = robot.run(MachineSpec::tartan(), opt);
        opt.tier = SoftwareTier::Approximate;
        auto approx = robot.run(MachineSpec::tartan(), opt);
        EXPECT_LE(approx.wallCycles,
                  exact.wallCycles + exact.wallCycles / 10)
            << robot.name;
    }
}

TEST(Integration, CoprocessorNpuSlowerThanIntegratedForAxar)
{
    using namespace tartan::workloads;
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Approximate;
    opt.scale = 0.5;
    auto integrated = runFlyBot(MachineSpec::tartan(), opt);
    auto coproc_spec = MachineSpec::tartan();
    coproc_spec.npuCfg.placement = core::NpuPlacement::Coprocessor;
    auto coproc = runFlyBot(coproc_spec, opt);
    EXPECT_LT(integrated.wallCycles, coproc.wallCycles);
    // Both still deliver the same final path cost.
    EXPECT_EQ(integrated.metrics.at("planCost"),
              coproc.metrics.at("planCost"));
}

TEST(Integration, SoftwareNeuralSlowerThanNpuEverywhere)
{
    using namespace tartan::workloads;
    WorkloadOptions npu_opt;
    npu_opt.tier = SoftwareTier::Approximate;
    npu_opt.scale = 0.5;
    WorkloadOptions sw_opt = npu_opt;
    sw_opt.softwareNeural = true;
    for (auto fn : {runPatrolBot, runHomeBot, runFlyBot}) {
        auto h = fn(MachineSpec::tartan(), npu_opt);
        auto s = fn(MachineSpec::tartan(), sw_opt);
        EXPECT_LT(h.wallCycles, s.wallCycles);
        EXPECT_GT(h.npuInvocations, 0u);
        EXPECT_EQ(s.npuInvocations, 0u);
    }
}

TEST(Integration, UpgradedBaselineNoSlowerThanStock)
{
    using namespace tartan::workloads;
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Legacy;
    opt.scale = 0.5;
    std::uint64_t stock_total = 0, upgraded_total = 0;
    for (const auto &robot : robotSuite()) {
        stock_total +=
            robot.run(MachineSpec::stockBaseline(), opt).wallCycles;
        upgraded_total +=
            robot.run(MachineSpec::baseline(), opt).wallCycles;
    }
    // §III-A: the upgrades give a slight average improvement.
    EXPECT_LE(upgraded_total, stock_total + stock_total / 20);
}

/** Seeds sweep: every robot completes across random environments. */
class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, AllRobotsCompleteAndStayConsistent)
{
    using namespace tartan::workloads;
    WorkloadOptions opt;
    opt.scale = 0.35;
    opt.seed = GetParam();
    for (const auto &robot : robotSuite()) {
        auto res = robot.run(MachineSpec::tartan(), opt);
        EXPECT_GT(res.wallCycles, 0u) << robot.name;
        EXPECT_LE(res.wallCycles, res.workCycles) << robot.name;
        EXPECT_GT(res.instructions, 0u) << robot.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 7ull, 42ull, 99ull,
                                           2024ull));

// ------------------------------------------------- AXAR end-to-end

TEST(Integration, AxarFinalCostMatchesExactAcrossSeeds)
{
    using namespace tartan::workloads;
    for (std::uint64_t seed : {5ull, 42ull, 77ull}) {
        WorkloadOptions opt;
        opt.scale = 0.5;
        opt.seed = seed;
        opt.tier = SoftwareTier::Optimized;
        auto exact = runFlyBot(MachineSpec::tartan(), opt);
        opt.tier = SoftwareTier::Approximate;
        auto axar = runFlyBot(MachineSpec::tartan(), opt);
        ASSERT_EQ(exact.metrics.at("planFound"), 1.0) << seed;
        EXPECT_NEAR(axar.metrics.at("planCost"),
                    exact.metrics.at("planCost"), 1e-6)
            << "seed " << seed;
    }
}

} // namespace
