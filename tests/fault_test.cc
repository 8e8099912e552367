/**
 * @file
 * Tests for the deterministic fault-injection subsystem: spec parsing,
 * per-stream reproducibility, the null-hook guarantee at workload
 * level, and the sanitizing helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "sim/fault.hh"
#include "sim/report.hh"
#include "workloads/robots.hh"

namespace {

using namespace tartan::sim;
using tartan::workloads::MachineSpec;
using tartan::workloads::RunResult;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;

TEST(FaultPlan, ParsesFullSpec)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=7;sensor:drop=0.05,nan=0.01;mem:spike=0.001@400", plan,
        &err))
        << err;
    EXPECT_EQ(plan.seed(), 7u);
    EXPECT_DOUBLE_EQ(plan.drop.rate, 0.05);
    EXPECT_DOUBLE_EQ(plan.nan.rate, 0.01);
    EXPECT_DOUBLE_EQ(plan.memSpike.rate, 0.001);
    EXPECT_DOUBLE_EQ(plan.memSpike.mag, 400.0);
    EXPECT_TRUE(plan.sensorEnabled());
    EXPECT_FALSE(plan.surrogateEnabled());
    EXPECT_TRUE(plan.memEnabled());
    EXPECT_TRUE(plan.anyEnabled());
    // The spec echoes verbatim (manifest reproducibility).
    EXPECT_EQ(plan.spec(),
              "seed=7;sensor:drop=0.05,nan=0.01;mem:spike=0.001@400");
}

TEST(FaultPlan, DefaultsApply)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("sensor:noise=0.1", plan));
    EXPECT_EQ(plan.seed(), 42u);      // default seed
    EXPECT_DOUBLE_EQ(plan.noise.rate, 0.1);
    EXPECT_GT(plan.noise.mag, 0.0);   // default magnitude
}

TEST(FaultPlan, EmptySpecIsNoop)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("", plan));
    EXPECT_FALSE(plan.anyEnabled());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string err;
    const char *bad[] = {
        "bogus:drop=0.1",          // unknown layer
        "sensor:warp=0.1",         // unknown fault name
        "sensor:drop=1.5",         // rate out of [0, 1]
        "sensor:drop=-0.1",        // negative rate
        "sensor:drop",             // missing '='
        "sensor:drop=0.6,nan=0.6", // sensor rates sum > 1
        "seed=x",                  // non-numeric seed
    };
    for (const char *spec : bad) {
        err.clear();
        EXPECT_FALSE(FaultPlan::parse(spec, plan, &err))
            << "accepted: " << spec;
        EXPECT_FALSE(err.empty()) << spec;
    }
}

TEST(FaultInjector, SameStreamIsReproducible)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=9;sensor:drop=0.2,noise=0.2,spike=0.1@5,nan=0.1", plan));
    auto a = plan.makeInjector("DeliBot");
    auto b = plan.makeInjector("DeliBot");
    for (int i = 0; i < 500; ++i) {
        const auto ra = a->sensor(1.0, 10.0);
        const auto rb = b->sensor(1.0, 10.0);
        EXPECT_EQ(ra.kind, rb.kind);
        if (std::isfinite(ra.value) || std::isfinite(rb.value)) {
            EXPECT_DOUBLE_EQ(ra.value, rb.value);
        }
    }
    EXPECT_EQ(a->stats().sensorTotal(), b->stats().sensorTotal());
    EXPECT_GT(a->stats().sensorTotal(), 0u);
}

TEST(FaultInjector, DistinctStreamsDecorrelate)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("seed=9;sensor:drop=0.5", plan));
    auto a = plan.makeInjector("DeliBot");
    auto b = plan.makeInjector("FlyBot");
    bool differs = false;
    for (int i = 0; i < 200 && !differs; ++i)
        differs = a->sensor(1.0, 1.0).kind != b->sensor(1.0, 1.0).kind;
    EXPECT_TRUE(differs);
}

TEST(FaultInjector, MemLayerHonorsRates)
{
    FaultPlan always;
    ASSERT_TRUE(FaultPlan::parse("mem:spike=1.0@250", always));
    auto inj = always.makeInjector("x");
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(inj->memPenalty(), Cycles(250));
    EXPECT_EQ(inj->stats().memSpikes, 10u);

    FaultPlan never;  // all-zero plan: the zero-rate hooks stay silent
    auto off = never.makeInjector("x");
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(off->memPenalty(), Cycles(0));
        EXPECT_FALSE(off->prefetchBlackout());
    }
    EXPECT_EQ(off->stats().total(), 0u);
}

TEST(Sanitize, RepairsBufferInPlace)
{
    std::vector<float> buf{0.5f, std::nanf(""), 7.0f, -3.0f,
                           std::numeric_limits<float>::infinity()};
    const std::uint64_t repaired =
        sanitizeSamples(buf.data(), buf.size(), 0.0f, 1.0f);
    EXPECT_EQ(repaired, 4u);
    for (float v : buf) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
    EXPECT_FLOAT_EQ(buf[0], 0.5f);  // clean sample untouched
}

TEST(GuardedSensor, NullInjectorPassesThrough)
{
    GuardedSensor s(nullptr, 0.0, 10.0);
    EXPECT_DOUBLE_EQ(s.read(3.25), 3.25);
    EXPECT_DOUBLE_EQ(s.read(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.read(10.0), 10.0);
    EXPECT_EQ(s.faults(), 0u);
    EXPECT_EQ(s.recoveries(), 0u);
    // Out-of-range clean input still clamps (the sanitizer half).
    EXPECT_DOUBLE_EQ(s.read(12.0), 10.0);
    EXPECT_EQ(s.recoveries(), 1u);
}

TEST(GuardedSensor, RepairsInjectedFaults)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("sensor:nan=0.5,spike=0.5@100", plan));
    auto inj = plan.makeInjector("t");
    GuardedSensor s(inj.get(), 0.0, 1.0);
    for (int i = 0; i < 200; ++i) {
        const double v = s.read(0.5);
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    EXPECT_GT(s.faults(), 0u);
    EXPECT_GT(s.recoveries(), 0u);
}

/** Shared small-scale options for the workload-level tests. */
WorkloadOptions
smallRun()
{
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Approximate;
    opt.scale = 0.25;
    opt.seed = 42;
    return opt;
}

TEST(FaultWorkload, NullHookMatchesZeroPlan)
{
    // The null-hook guarantee at workload granularity: running with no
    // injector and with an all-zero plan's injector must produce
    // identical timing and identical shared quality metrics.
    const MachineSpec spec = MachineSpec::tartan();
    const RunResult plain =
        tartan::workloads::runDeliBot(spec, smallRun());

    FaultPlan zero;
    auto inj = zero.makeInjector("DeliBot");
    WorkloadOptions opt = smallRun();
    opt.faults = inj.get();
    const RunResult hooked = tartan::workloads::runDeliBot(spec, opt);

    EXPECT_EQ(plain.wallCycles, hooked.wallCycles);
    EXPECT_EQ(plain.workCycles, hooked.workCycles);
    EXPECT_EQ(plain.instructions, hooked.instructions);
    for (const auto &[key, val] : plain.metrics) {
        ASSERT_TRUE(hooked.metrics.count(key)) << key;
        EXPECT_DOUBLE_EQ(val, hooked.metrics.at(key)) << key;
    }
    EXPECT_EQ(inj->stats().total(), 0u);
}

TEST(FaultWorkload, SamePlanIsReproducible)
{
    const MachineSpec spec = MachineSpec::tartan();
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=5;sensor:drop=0.1,nan=0.05,spike=0.05@20", plan));

    RunResult runs[2];
    for (RunResult &res : runs) {
        auto inj = plan.makeInjector("DeliBot");
        WorkloadOptions opt = smallRun();
        opt.faults = inj.get();
        res = tartan::workloads::runDeliBot(spec, opt);
    }
    EXPECT_EQ(runs[0].wallCycles, runs[1].wallCycles);
    EXPECT_EQ(runs[0].instructions, runs[1].instructions);
    ASSERT_EQ(runs[0].metrics.size(), runs[1].metrics.size());
    for (const auto &[key, val] : runs[0].metrics)
        EXPECT_DOUBLE_EQ(val, runs[1].metrics.at(key)) << key;
    EXPECT_GT(runs[0].metrics.at("faultsInjected"), 0.0);
}

TEST(FaultWorkload, SurvivesSensorChaos)
{
    const MachineSpec spec = MachineSpec::tartan();
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "sensor:drop=0.2,noise=0.2@0.1,spike=0.1@20,nan=0.1", plan));
    auto inj = plan.makeInjector("DeliBot");
    WorkloadOptions opt = smallRun();
    opt.faults = inj.get();
    const RunResult res = tartan::workloads::runDeliBot(spec, opt);
    for (const auto &[key, val] : res.metrics)
        EXPECT_TRUE(std::isfinite(val)) << key;
    EXPECT_GT(res.metrics.at("faultsInjected"), 0.0);
    EXPECT_GT(res.metrics.at("recoveries"), 0.0);
}

TEST(BenchManifest, EchoesFaultPlan)
{
    // BENCH manifests always carry the applied fault spec and seed;
    // no plan means the documented "none" / 0 sentinel.
    unsetenv("TARTAN_FAULTS");
    BenchReporter rep("fault_manifest_test", "n/a");
    std::ostringstream os;
    rep.writeJson(os);
    std::string err;
    EXPECT_TRUE(validateBenchJson(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("\"faults\": \"none\""), std::string::npos);
    EXPECT_NE(os.str().find("\"faultSeed\": 0"), std::string::npos);
}

TEST(BenchManifest, NamesOnlyAnAppliedFaultPlan)
{
    // TARTAN_FAULTS alone does not reach the manifest: a driver that
    // never injects the plan must not claim it did.
    setenv("TARTAN_FAULTS", "seed=7;mem:spike=0.5@400", 1);
    {
        BenchReporter rep("fault_manifest_test", "n/a");
        std::ostringstream os;
        rep.writeJson(os);
        EXPECT_NE(os.str().find("\"faults\": \"none\""),
                  std::string::npos);
        EXPECT_NE(os.str().find("\"faultSeed\": 0"), std::string::npos);
    }
    unsetenv("TARTAN_FAULTS");

    // The driver that applies a plan echoes it through the setter.
    BenchReporter rep("fault_manifest_test", "n/a");
    rep.faultPlan("seed=7;sensor:drop=0.2", 7);
    std::ostringstream os;
    rep.writeJson(os);
    std::string err;
    EXPECT_TRUE(validateBenchJson(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("\"faults\": \"seed=7;sensor:drop=0.2\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"faultSeed\": 7"), std::string::npos);
}

TEST(BenchManifest, ValidatorTypesFaultFields)
{
    const char *doc = R"({
        "bench": "x",
        "manifest": {"git": "g", "timestamp": "t", "paper": "p",
                     "faults": 3},
        "config": {}, "metrics": {}, "kernels": []
    })";
    std::string err;
    EXPECT_FALSE(validateBenchJson(doc, &err));
    EXPECT_NE(err.find("faults"), std::string::npos);
}

} // namespace
