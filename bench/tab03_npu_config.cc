/**
 * @file
 * Table III reproduction: NPU configurations with 2, 4 and 8 PEs —
 * SRAM footprint, silicon area, and the geometric-mean speedup of the
 * three approximable robots over their exact (non-NPU) runs. The 12
 * runs (3 exact baselines + 3 robots x 3 PE configs) execute through
 * a RunPool. The PE sweep replays captures because replay is measured
 * faster than direct runs for this driver (EXPERIMENTS.md).
 */

#include "bench_util.hh"

#include "core/npu.hh"

using namespace tartan::bench;
using namespace tartan::workloads;

int
main()
{
    BenchReporter rep("tab03_npu_config",
                      "2 PEs: 10.5KB/1.25x/920um2; 4 PEs: "
                      "18.8KB/1.58x/1661um2; 8 PEs: 35.3KB/1.68x/"
                      "3144um2 (8-PE gains accrue mostly to PatrolBot)");
    rep.config("peSweep", "2 4 8");
    rep.config("baseline", "exact (non-NPU) optimized runs");

    struct Target {
        const char *name;
        tartan::workloads::RobotFn run;
    };
    const Target targets[] = {{"PatrolBot", runPatrolBot},
                              {"HomeBot", runHomeBot},
                              {"FlyBot", runFlyBot}};

    RunPool pool;
    std::vector<Cell<RunResult>> jobs;
    // Exact (non-NPU) reference runs: a different software tier runs
    // different code, so these stay direct cells. The PE sweep shares
    // one Approximate-tier capture per robot — PE count only rescales
    // the semantic NPU events at replay.
    for (const auto &t : targets)
        jobs.push_back(cell(std::string(t.name) + "/exact", t.run,
                            MachineSpec::tartan(),
                            options(SoftwareTier::Optimized)));
    std::vector<std::unique_ptr<CaptureSource>> sources;
    for (const auto &t : targets)
        sources.push_back(std::make_unique<CaptureSource>(
            t.name, t.run, MachineSpec::tartan(),
            options(SoftwareTier::Approximate)));
    for (std::uint32_t pes : {2u, 4u, 8u}) {
        auto spec = MachineSpec::tartan();
        spec.npuCfg.pes = pes;
        for (std::size_t i = 0; i < 3; ++i)
            jobs.push_back(replayCell(*sources[i],
                                      std::string(targets[i].name) + "/" +
                                          std::to_string(pes) + "PE",
                                      spec));
    }
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::vector<double> base_cycles;
    std::size_t r = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        base_cycles.push_back(double(results[r].wallCycles));
        reportCpi(rep, std::string(targets[i].name) + "/exact",
                  results[r]);
        ++r;
    }

    std::printf("%-4s %10s %10s %14s", "PEs", "mem[KB]", "area[um2]",
                "GMean speedup");
    for (const auto &t : targets)
        std::printf(" %10s", t.name);
    std::printf("\n");

    for (std::uint32_t pes : {2u, 4u, 8u}) {
        auto spec = MachineSpec::tartan();
        spec.npuCfg.pes = pes;
        tartan::core::NpuModel npu(spec.npuCfg);

        std::vector<double> speedups;
        for (std::size_t i = 0; i < 3; ++i) {
            const RunResult &res = results[r++];
            // The paper's chosen configuration (4 PEs) gets the CPI
            // decomposition; the npu category isolates device waits.
            if (pes == 4)
                reportCpi(rep, std::string(targets[i].name) + "/4PE",
                          res);
            speedups.push_back(speedup(base_cycles[i],
                                       double(res.wallCycles)));
        }
        std::printf("%-4u %10.1f %10.0f %13.2fx", pes, npu.memoryKB(),
                    npu.areaUm2(), geomean(speedups));
        for (double s : speedups)
            std::printf(" %9.2fx", s);
        std::printf("\n");

        const std::string row = std::to_string(pes) + "PE";
        rep.kernelMetric(row, "memoryKB", npu.memoryKB());
        rep.kernelMetric(row, "areaUm2", npu.areaUm2());
        rep.kernelMetric(row, "gmeanSpeedup", geomean(speedups));
        for (std::size_t i = 0; i < 3; ++i)
            rep.kernelMetric(row,
                             std::string(targets[i].name) + "Speedup",
                             speedups[i]);
    }
    rep.note("shape: memory/area grow with PEs; speedup saturates past "
             "4 PEs (the paper picks 4)");
    std::printf("\nShape check: memory/area grow with PEs; speedup "
                "saturates past 4 PEs (the paper picks 4).\n");
    return campaignExit(rep);
}
