/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out, beyond
 * the paper's published sweeps:
 *
 *  1. ANL geometry — table entries x region size (the paper fixes
 *     16 entries / 1 KB regions; §VI-D argues small regions minimise
 *     overprediction).
 *  2. FCP level — private L2 only vs. L2 + shared L3 (the paper's
 *     §VIII-D suggests L3 partitioning for graph-heavy workloads).
 *  3. NPU integration latency — how fast the CPU-NPU link must be for
 *     AXAR to profit (the original NPU work demands 1-4 cycles).
 *
 * Each sweep submits its runs (baseline included) to a shared RunPool
 * and prints only after the gather, so the tables are identical under
 * any TARTAN_JOBS. Sweeps replay captures because replay is measured
 * faster than direct runs for this driver (EXPERIMENTS.md).
 */

#include "bench_util.hh"

#include "core/anl.hh"

using namespace tartan::bench;
using namespace tartan::workloads;

namespace {

void
anlGeometry(BenchReporter &rep, RunPool &pool)
{
    // One MoveBot execution serves the whole 13-cell geometry sweep
    // (ANL geometry is a timing-only knob).
    CaptureSource src("MoveBot", runMoveBot, MachineSpec::baseline(),
                      options(SoftwareTier::Optimized, 1.0, 123));
    std::vector<Cell<RunResult>> jobs;
    jobs.push_back(replayCell(src, "anl/base", MachineSpec::baseline()));
    for (std::uint32_t entries : {8u, 16u, 32u, 64u}) {
        for (std::uint32_t region : {512u, 1024u, 2048u}) {
            auto spec = MachineSpec::baseline();
            spec.useAnl = true;
            spec.anlCfg.entries = entries;
            spec.anlCfg.regionBytes = region;
            spec.anlCfg.lineBytes = spec.sys.lineBytes;
            jobs.push_back(
                replayCell(src,
                           "anl/" + std::to_string(entries) + "e-" +
                               std::to_string(region) + "B",
                           spec));
        }
    }
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::printf("\n-- ANL geometry (MoveBot, norm. time and coverage) "
                "--\n");
    std::printf("%-8s %-8s %10s %10s %10s\n", "entries", "region",
                "norm.time", "coverage", "accuracy");
    std::size_t r = 0;
    const RunResult &base = results[r++];
    reportCpi(rep, "anl/base", base);
    for (std::uint32_t entries : {8u, 16u, 32u, 64u}) {
        for (std::uint32_t region : {512u, 1024u, 2048u}) {
            const RunResult &res = results[r++];
            if (entries == 16 && region == 1024)
                reportCpi(rep, "anl/16e-1024B", res);
            const double hits =
                double(res.pfHitsTimely + res.pfHitsLate);
            const double norm =
                double(res.wallCycles) / double(base.wallCycles);
            const double coverage =
                hits / std::max(1.0, hits + double(res.l2Misses));
            const double accuracy =
                hits / std::max<double>(1.0, double(res.pfIssued));
            const std::string row = "anl/" + std::to_string(entries) +
                                    "e-" + std::to_string(region) + "B";
            rep.kernelMetric(row, "normTime", norm);
            rep.kernelMetric(row, "coverage", coverage);
            rep.kernelMetric(row, "accuracy", accuracy);
            std::printf("%-8u %-8u %10.3f %9.0f%% %9.0f%%\n", entries,
                        region, norm, 100.0 * coverage,
                        100.0 * accuracy);
        }
    }
}

void
fcpLevel(BenchReporter &rep, RunPool &pool)
{
    struct Config {
        const char *name;
        bool l2;
        bool l3;
    };
    const Config configs[] = {{"none", false, false},
                              {"L2", true, false},
                              {"L2+L3", true, true}};

    // One CarriBot execution serves all four FCP-level cells.
    CaptureSource src("CarriBot", runCarriBot, MachineSpec::baseline(),
                      options(SoftwareTier::Optimized, 0.6));
    std::vector<Cell<RunResult>> jobs;
    jobs.push_back(replayCell(src, "fcp/base", MachineSpec::baseline()));
    for (const Config &c : configs) {
        auto spec = MachineSpec::baseline();
        spec.sys.fcpEnabled = c.l2;
        spec.sys.fcpAtL3 = c.l3;
        jobs.push_back(replayCell(src, std::string("fcp/") + c.name, spec));
    }
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::printf("\n-- FCP level (CarriBot, norm. time / L2 misses) --\n");
    std::printf("%-10s %10s %12s\n", "config", "norm.time", "l2misses");
    std::size_t r = 0;
    const RunResult &base = results[r++];
    reportCpi(rep, "fcp/base", base);
    for (const Config &c : configs) {
        const RunResult &res = results[r++];
        const std::string row = std::string("fcp/") + c.name;
        reportCpi(rep, row, res);
        rep.kernelMetric(row, "normTime",
                         double(res.wallCycles) /
                             double(base.wallCycles));
        rep.kernelMetric(row, "l2Misses", double(res.l2Misses));
        std::printf("%-10s %10.3f %12llu\n", c.name,
                    double(res.wallCycles) / double(base.wallCycles),
                    static_cast<unsigned long long>(res.l2Misses));
    }
}

void
npuLinkLatency(BenchReporter &rep, RunPool &pool)
{
    // The exact (Optimized-tier) reference runs different code from
    // the Approximate sweep cells, so it stays a direct cell; the five
    // latency points share one Approximate-tier capture — commLatency
    // only rescales the semantic NPU events at replay.
    CaptureSource src("FlyBot", runFlyBot, MachineSpec::tartan(),
                      options(SoftwareTier::Approximate));
    std::vector<Cell<RunResult>> jobs;
    jobs.push_back(cell("npuLink/exact", runFlyBot, MachineSpec::tartan(),
                        options(SoftwareTier::Optimized)));
    for (tartan::sim::Cycles lat : {1u, 4u, 16u, 48u, 104u}) {
        auto spec = MachineSpec::tartan();
        spec.npuCfg.commLatency = lat;
        jobs.push_back(replayCell(
            src, "npuLink/" + std::to_string(lat) + "cyc", spec));
    }
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::printf("\n-- CPU-NPU link latency (FlyBot AXAR, norm. time) "
                "--\n");
    std::printf("%-10s %10s\n", "cycles", "norm.time");
    std::size_t r = 0;
    const RunResult &exact = results[r++];
    reportCpi(rep, "npuLink/exact", exact);
    for (tartan::sim::Cycles lat : {1u, 4u, 16u, 48u, 104u}) {
        const RunResult &res = results[r++];
        reportCpi(rep, "npuLink/" + std::to_string(lat) + "cyc", res);
        rep.kernelMetric("npuLink/" + std::to_string(lat) + "cyc",
                         "normTime",
                         double(res.wallCycles) /
                             double(exact.wallCycles));
        std::printf("%-10llu %10.3f\n",
                    static_cast<unsigned long long>(lat),
                    double(res.wallCycles) / double(exact.wallCycles));
    }
    std::printf("(paper/[99]: the link must stay in the 1-4 cycle "
                "range for fine-grained approximate acceleration)\n");
}

} // namespace

int
main()
{
    BenchReporter rep("abl_sensitivity",
                      "extensions beyond the paper's sweeps: ANL "
                      "geometry, FCP cache level, NPU link latency");
    rep.config("anlSweep", "MoveBot, entries x regionBytes");
    rep.config("fcpSweep", "CarriBot, none/L2/L2+L3");
    rep.config("npuLinkSweep", "FlyBot AXAR, 1-104 cycles");
    RunPool pool;
    anlGeometry(rep, pool);
    fcpLevel(rep, pool);
    npuLinkLatency(rep, pool);
    return campaignExit(rep);
}
