/**
 * @file
 * End-to-end workload tests: every robot runs to completion, produces
 * sane metrics, responds to hardware features in the expected
 * direction, and is deterministic for a fixed seed.
 */

#include <gtest/gtest.h>

#include "workloads/robots.hh"

namespace {

using namespace tartan::workloads;

WorkloadOptions
smallRun(SoftwareTier tier = SoftwareTier::Optimized)
{
    WorkloadOptions opt;
    opt.tier = tier;
    opt.scale = 0.35;
    return opt;
}

TEST(Suite, HasSixRobots)
{
    EXPECT_EQ(robotSuite().size(), 6u);
}

/** Every robot completes on baseline and Tartan machines. */
class RobotSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RobotSweep, RunsOnBaseline)
{
    const auto &entry = robotSuite()[GetParam()];
    auto res = entry.run(MachineSpec::baseline(), smallRun());
    EXPECT_GT(res.wallCycles, 0u);
    EXPECT_GT(res.instructions, 0u);
    EXPECT_FALSE(res.bottleneckKernel.empty());
    EXPECT_EQ(res.robot, entry.name);
}

TEST_P(RobotSweep, RunsOnTartan)
{
    const auto &entry = robotSuite()[GetParam()];
    auto res = entry.run(MachineSpec::tartan(), smallRun());
    EXPECT_GT(res.wallCycles, 0u);
}

TEST_P(RobotSweep, DeterministicForFixedSeed)
{
    // Instruction counts and algorithmic metrics are exactly
    // reproducible; cycles can wiggle slightly when index structures
    // live on the host heap (set mapping follows real addresses).
    const auto &entry = robotSuite()[GetParam()];
    auto a = entry.run(MachineSpec::baseline(), smallRun());
    auto b = entry.run(MachineSpec::baseline(), smallRun());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_NEAR(double(a.wallCycles), double(b.wallCycles),
                0.02 * double(a.wallCycles) + 100);
}

TEST_P(RobotSweep, WallNeverExceedsWork)
{
    const auto &entry = robotSuite()[GetParam()];
    auto res = entry.run(MachineSpec::baseline(), smallRun());
    EXPECT_LE(res.wallCycles, res.workCycles);
}

INSTANTIATE_TEST_SUITE_P(AllRobots, RobotSweep, ::testing::Range(0, 6));

TEST(DeliBot, RaycastDominates)
{
    auto res = runDeliBot(MachineSpec::baseline(),
                          smallRun(SoftwareTier::Legacy));
    EXPECT_EQ(res.bottleneckKernel, "raycast");
    EXPECT_GT(res.bottleneckShare, 0.5);
}

TEST(DeliBot, TartanOptimizedFasterThanBaselineLegacy)
{
    auto legacy = runDeliBot(MachineSpec::baseline(),
                             smallRun(SoftwareTier::Legacy));
    auto tartan =
        runDeliBot(MachineSpec::tartan(), smallRun());
    EXPECT_LT(tartan.wallCycles, legacy.wallCycles);
}

TEST(PatrolBot, InferenceDominates)
{
    auto res = runPatrolBot(MachineSpec::baseline(),
                            smallRun(SoftwareTier::Legacy));
    EXPECT_EQ(res.bottleneckKernel, "inference");
    EXPECT_GT(res.bottleneckShare, 0.8);
}

TEST(PatrolBot, NpuAcceleratesInference)
{
    auto exact = runPatrolBot(MachineSpec::tartan(), smallRun());
    auto approx = runPatrolBot(MachineSpec::tartan(),
                               smallRun(SoftwareTier::Approximate));
    EXPECT_LT(approx.wallCycles, exact.wallCycles);
    EXPECT_GT(approx.npuInvocations, 0u);
}

TEST(MoveBot, ReachesAllGoals)
{
    // Full iteration budget: reduced-scale runs may legitimately leave
    // a query unconnected.
    WorkloadOptions opt = smallRun();
    opt.scale = 1.0;
    auto res = runMoveBot(MachineSpec::tartan(), opt);
    EXPECT_EQ(res.metrics.at("reachedGoals"), 3.0);
}

TEST(MoveBot, NnsIsBottleneckWithShardedCccd)
{
    // Needs a full-size tree: with few nodes the NNS has nothing to
    // search and CCCD dominates instead.
    WorkloadOptions opt = smallRun();
    opt.scale = 1.0;
    opt.seed = 123;
    auto res = runMoveBot(MachineSpec::baseline(), opt);
    EXPECT_EQ(res.bottleneckKernel, "nns");
}

TEST(MoveBot, VlnFasterThanBruteForce)
{
    WorkloadOptions brute = smallRun();
    brute.nns = NnsKind::Brute;
    brute.nnsExplicit = true;
    WorkloadOptions vln = smallRun();
    vln.nns = NnsKind::Vln;
    vln.nnsExplicit = true;
    auto b = runMoveBot(MachineSpec::baseline(), brute);
    auto v = runMoveBot(MachineSpec::baseline(), vln);
    EXPECT_LT(v.wallCycles, b.wallCycles);
}

TEST(HomeBot, TpredDominatesExactTier)
{
    auto res = runHomeBot(MachineSpec::baseline(),
                          smallRun(SoftwareTier::Legacy));
    EXPECT_EQ(res.bottleneckKernel, "tpred");
    EXPECT_GT(res.bottleneckShare, 0.4);
}

TEST(HomeBot, NpuRemovesIcpWork)
{
    auto exact = runHomeBot(MachineSpec::tartan(), smallRun());
    auto approx = runHomeBot(MachineSpec::tartan(),
                             smallRun(SoftwareTier::Approximate));
    EXPECT_LT(approx.wallCycles, exact.wallCycles);
    EXPECT_GT(approx.npuInvocations, 0u);
}

TEST(FlyBot, HeuristicDominates)
{
    auto res = runFlyBot(MachineSpec::baseline(),
                         smallRun(SoftwareTier::Legacy));
    EXPECT_EQ(res.bottleneckKernel, "heuristic");
    EXPECT_GT(res.bottleneckShare, 0.5);
}

TEST(FlyBot, AxarPreservesFinalPathCost)
{
    WorkloadOptions opt = smallRun();
    opt.scale = 0.5;
    auto exact = runFlyBot(MachineSpec::tartan(), opt);
    opt.tier = SoftwareTier::Approximate;
    auto axar = runFlyBot(MachineSpec::tartan(), opt);
    ASSERT_EQ(exact.metrics.at("planFound"), 1.0);
    ASSERT_EQ(axar.metrics.at("planFound"), 1.0);
    // AXAR: approximate execution, accurate result.
    EXPECT_NEAR(axar.metrics.at("planCost"), exact.metrics.at("planCost"),
                1e-6);
}

TEST(CarriBot, CollisionDominates)
{
    auto res = runCarriBot(MachineSpec::baseline(),
                           smallRun(SoftwareTier::Legacy));
    EXPECT_EQ(res.bottleneckKernel, "collision");
    EXPECT_GT(res.bottleneckShare, 0.5);
}

TEST(CarriBot, PlansThroughForkedCorridors)
{
    WorkloadOptions opt = smallRun();
    opt.scale = 0.5;
    auto res = runCarriBot(MachineSpec::baseline(), opt);
    EXPECT_GT(res.metrics.at("planCost"), 0.0);
    EXPECT_GT(res.metrics.at("planExpansions"), 100.0);
}

TEST(Machines, LegacyLineSizeDiffers)
{
    EXPECT_EQ(MachineSpec::stockBaseline().sys.lineBytes, 64u);
    EXPECT_EQ(MachineSpec::baseline().sys.lineBytes, 32u);
    EXPECT_EQ(MachineSpec::stockBaseline().sys.core.vectorLanes, 8u);
    EXPECT_EQ(MachineSpec::baseline().sys.core.vectorLanes, 16u);
}

TEST(Machines, TartanEnablesAllFeatures)
{
    const auto spec = MachineSpec::tartan();
    EXPECT_TRUE(spec.useAnl);
    EXPECT_TRUE(spec.ovec);
    EXPECT_TRUE(spec.npu);
    EXPECT_TRUE(spec.sys.fcpEnabled);
    EXPECT_TRUE(spec.wtQueues);
}

TEST(Machines, WtQueuesReduceL3Traffic)
{
    auto with = MachineSpec::baseline();
    auto without = MachineSpec::baseline();
    without.wtQueues = false;
    auto a = runDeliBot(with, smallRun(SoftwareTier::Legacy));
    auto b = runDeliBot(without, smallRun(SoftwareTier::Legacy));
    EXPECT_LE(a.l3Traffic, b.l3Traffic);
}

TEST(Machines, UdmTrackingReportsWaste)
{
    auto spec = MachineSpec::stockBaseline();
    spec.sys.trackUdm = true;
    auto res = runDeliBot(spec, smallRun(SoftwareTier::Legacy));
    EXPECT_GT(res.udmFetchedBytes, 0u);
    EXPECT_LT(res.udmUsedBytes, res.udmFetchedBytes);
}

TEST(Machines, SmallerLinesReduceUdm)
{
    auto wide = MachineSpec::stockBaseline();
    wide.sys.trackUdm = true;
    auto narrow = MachineSpec::baseline();
    narrow.sys.trackUdm = true;
    auto w = runDeliBot(wide, smallRun(SoftwareTier::Legacy));
    auto n = runDeliBot(narrow, smallRun(SoftwareTier::Legacy));
    const double waste_wide =
        double(w.udmFetchedBytes - w.udmUsedBytes);
    const double waste_narrow =
        double(n.udmFetchedBytes - n.udmUsedBytes);
    EXPECT_LT(waste_narrow, waste_wide);
}

TEST(MachinesDeathTest, FinishChecksCounterInvariants)
{
    // Every run ends in summarize(), which checks the machine's
    // counter invariants after the dirty-line drain.
    const auto run = [](bool corrupt) {
        Machine machine(MachineSpec::baseline(), WorkloadOptions{});
        static int data[4096];
        for (int &x : data)
            machine.core().load(reinterpret_cast<tartan::sim::Addr>(&x),
                                1);
        if (corrupt)
            machine.system().mem().stats.pfLateCycles = 1;
        Pipeline pipeline(machine.core());
        RunResult result;
        summarize(machine, pipeline, result);
        return result.l1Accesses;
    };
    EXPECT_GT(run(false), 0u);
    EXPECT_DEATH(run(true), "late cycles imply late hits");
}

} // namespace
