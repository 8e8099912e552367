/**
 * @file
 * Fig. 7 reproduction: ray casting with trilinear interpolation under
 * Baseline, OVEC, an Intel-style ray-casting accelerator (zero-cost
 * interpolation + local voxel storage), and OVEC combined with the
 * accelerator — demonstrating the two designs are orthogonal. The four
 * configurations execute through a RunPool; each run builds its own
 * engine so no simulation state is shared between workers.
 */

#include "bench_util.hh"

#include "core/ovec.hh"
#include "robotics/geometry.hh"
#include "robotics/raycast.hh"
#include "sim/arena.hh"

using namespace tartan;
using namespace tartan::bench;
using robotics::Mem;

namespace {

/**
 * Run the DeliBot-style interpolated ray-casting kernel; the outcome
 * is its total cycles (wallCycles) and per-kernel counters.
 */
RunResult
rayCastingTime(bool use_ovec, bool accel)
{
    // Engines are stateful (batch statistics), so every run constructs
    // its own rather than sharing one across concurrent configs.
    robotics::ScalarOrientedEngine scalar;
    core::OvecEngine ovec;
    robotics::OrientedEngine &engine =
        use_ovec ? static_cast<robotics::OrientedEngine &>(ovec)
                 : scalar;

    sim::SysConfig sys_cfg;
    sys_cfg.lineBytes = 32;
    sim::System sys(sys_cfg);
    Mem mem(&sys.core());
    sim::Arena arena(16 << 20);
    sys.mem().mapSegment(arena.base(), arena.capacityBytes());
    robotics::OccupancyGrid2D grid(384, 384, arena);
    sim::Rng rng(42);
    grid.makeHeterogeneous(rng, 0.01, 0.04);

    robotics::RayConfig cfg;
    cfg.maxRange = 96;
    cfg.interpolate = true;
    cfg.interpOnAccelerator = accel;
    robotics::LocalVoxelStorage lvs;

    // MCL-style repeated scans: pose hypotheses re-scan the same map
    // neighbourhood, so the working set warms up as in DeliBot.
    for (int round = 0; round < 6; ++round) {
        for (int scan = 0; scan < 8; ++scan) {
            const double ox = 120 + (scan % 4) * 8 + round;
            const double oy = 150 + (scan / 4) * 8;
            for (int ray = 0; ray < 16; ++ray)
                castRay(mem, grid, ox, oy,
                        ray * 2.0 * robotics::kPi / 16.0, cfg, engine,
                        accel ? &lvs : nullptr);
        }
    }
    RunResult res;
    res.wallCycles = sys.core().cycles();
    res.kernels = sys.core().kernels();
    return res;
}

} // namespace

int
main()
{
    BenchReporter rep("fig07_interp",
                      "norm. time: B 1.0, OVEC 0.74 (1.36x), Intel 0.52 "
                      "(1.92x), O+I 0.39 (2.56x; 1.33x over Intel "
                      "alone)");
    rep.config("grid", "384x384 occupancy, 32B lines");
    rep.config("configs", "B=scalar O=ovec I=intel-accel O+I=combined");

    RunPool pool;
    std::vector<Cell<RunResult>> jobs;
    const struct { const char *cfg; bool ovec; bool accel; } configs[] = {
        {"B", false, false},
        {"O", true, false},
        {"I", false, true},
        {"O+I", true, true}};
    for (const auto &c : configs) {
        Cell<RunResult> one;
        one.label = c.cfg;
        // Content address: every knob rayCastingTime() bakes into the
        // run, so a kernel change shows up as a config change only if
        // it is reflected here — the codec schema covers the rest.
        one.configHash = sim::fnv1a64(
            std::string("fig07;grid=384x384;lines=32;rays=16;"
                        "rounds=6;scans=8;ovec=") +
            (c.ovec ? "1" : "0") + ";accel=" + (c.accel ? "1" : "0"));
        one.seed = 42;
        one.fn = [ovec = c.ovec, accel = c.accel]() {
            return rayCastingTime(ovec, accel);
        };
        jobs.push_back(std::move(one));
    }
    const std::vector<RunResult> runs = runAll(rep, pool, std::move(jobs));
    const auto cycles = [&runs](std::size_t c) {
        return double(runs[c].wallCycles);
    };
    const double b = cycles(0), o = cycles(1), i = cycles(2),
                 oi = cycles(3);

    std::printf("%-4s %14s %10s %9s\n", "cfg", "cycles", "norm", "speedup");
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "B", b, 1.0, 1.0);
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "O", o, o / b, b / o);
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "I", i, i / b, b / i);
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "O+I", oi, oi / b, b / oi);
    std::printf("\nOrthogonality: O+I over I alone = %.2fx "
                "(paper: 1.33x)\n", i / oi);

    for (std::size_t c = 0; c < 4; ++c) {
        rep.kernelMetric(configs[c].cfg, "cycles", cycles(c));
        rep.kernelMetric(configs[c].cfg, "normTime", cycles(c) / b);
        rep.kernelMetric(configs[c].cfg, "speedup", b / cycles(c));
        reportCpi(rep, configs[c].cfg, runs[c]);
    }
    rep.metric("orthogonalityOiOverI", i / oi);
    rep.note("paper: O+I over I alone = 1.33x");
    return campaignExit(rep);
}
