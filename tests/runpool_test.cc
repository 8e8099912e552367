/**
 * @file
 * RunPool: the parallel run engine behind the bench drivers. The tests
 * pin down the three properties every driver relies on — results come
 * back in submission order, a worker exception surfaces at the
 * offending job's position, and a parallel sweep is *bit-identical* to
 * the serial (TARTAN_JOBS=1) sweep for every robot.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/runpool.hh"
#include "workloads/robots.hh"

using tartan::sim::RunPool;
using tartan::workloads::MachineSpec;
using tartan::workloads::robotSuite;
using tartan::workloads::RunResult;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;

namespace {

/** Submit @p jobs and gather the futures in submission order. */
template <typename R>
std::vector<R>
gather(RunPool &pool, std::vector<std::function<R()>> jobs)
{
    std::vector<std::future<R>> futures;
    for (auto &j : jobs)
        futures.push_back(pool.submit(std::move(j)));
    std::vector<R> out;
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

/** Every field of RunResult, compared for exact (bit) equality. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.robot, b.robot);
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.workCycles, b.workCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.bottleneckKernel, b.bottleneckKernel);
    EXPECT_EQ(a.bottleneckShare, b.bottleneckShare);
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
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        EXPECT_EQ(a.kernels[k].name, b.kernels[k].name);
        EXPECT_EQ(a.kernels[k].cycles, b.kernels[k].cycles);
        EXPECT_EQ(a.kernels[k].memStallCycles,
                  b.kernels[k].memStallCycles);
        EXPECT_EQ(a.kernels[k].instructions, b.kernels[k].instructions);
    }

    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[key, val] : a.metrics) {
        const auto it = b.metrics.find(key);
        ASSERT_NE(it, b.metrics.end()) << key;
        EXPECT_EQ(val, it->second) << key;
    }
}

WorkloadOptions
testOptions()
{
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.3;
    opt.seed = 42;
    return opt;
}

} // namespace

// ---------------------------------------------------------------------------
// Pool mechanics
// ---------------------------------------------------------------------------

TEST(RunPool, SerialModeRunsInlineOnTheCallingThread)
{
    RunPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    const auto caller = std::this_thread::get_id();
    auto fut = pool.submit([caller]() {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return 7;
    });
    // Serial mode executes at submit time, not at get() time.
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(fut.get(), 7);
}

TEST(RunPool, ParallelModeRunsOffTheCallingThread)
{
    RunPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    const auto caller = std::this_thread::get_id();
    auto fut = pool.submit(
        [caller]() { return std::this_thread::get_id() != caller; });
    EXPECT_TRUE(fut.get());
}

TEST(RunPool, ResultsComeBackInSubmissionOrder)
{
    RunPool pool(4);
    const int n = 64;
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < n; ++i) {
        // Early submissions sleep longest, so completion order is
        // roughly the reverse of submission order.
        jobs.push_back([i]() {
            std::this_thread::sleep_for(
                std::chrono::microseconds((n - i) * 20));
            return i;
        });
    }
    const std::vector<int> results = gather(pool, std::move(jobs));
    ASSERT_EQ(results.size(), std::size_t(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(results[i], i);
}

TEST(RunPool, WorkerExceptionSurfacesAtTheJobsPosition)
{
    for (unsigned jobs : {1u, 4u}) {
        RunPool pool(jobs);
        auto ok = pool.submit([]() { return 1; });
        auto bad = pool.submit([]() -> int {
            throw std::runtime_error("boom");
        });
        auto after = pool.submit([]() { return 3; });
        EXPECT_EQ(ok.get(), 1);
        EXPECT_THROW(bad.get(), std::runtime_error);
        // The pool survives a throwing job; later work still runs.
        EXPECT_EQ(after.get(), 3);
    }
}

TEST(RunPool, DrainsEveryQueuedTaskBeforeDestruction)
{
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    {
        RunPool pool(2);
        for (int i = 0; i < 32; ++i)
            futures.push_back(pool.submit([&ran]() {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                ran.fetch_add(1);
            }));
    }
    EXPECT_EQ(ran.load(), 32);
    for (auto &f : futures)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
}

// ---------------------------------------------------------------------------
// Determinism: parallel == serial, bit for bit
// ---------------------------------------------------------------------------

TEST(RunPool, ParallelSweepIsBitIdenticalToSerialForAllRobots)
{
    // Serial reference: the TARTAN_JOBS=1 behaviour (inline execution).
    std::vector<RunResult> serial;
    {
        RunPool pool(1);
        std::vector<std::function<RunResult()>> jobs;
        for (const auto &robot : robotSuite())
            jobs.push_back([run = robot.run]() {
                return run(MachineSpec::tartan(), testOptions());
            });
        serial = gather(pool, std::move(jobs));
    }

    // The same sweep on four workers, twice, to give interleavings a
    // chance to vary.
    for (int round = 0; round < 2; ++round) {
        RunPool pool(4);
        std::vector<std::function<RunResult()>> jobs;
        for (const auto &robot : robotSuite())
            jobs.push_back([run = robot.run]() {
                return run(MachineSpec::tartan(), testOptions());
            });
        const std::vector<RunResult> parallel =
            gather(pool, std::move(jobs));

        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectIdentical(serial[i], parallel[i]);
    }
}

