/**
 * @file
 * DeliBot: a Spot-like delivery robot. MCL localisation (ray casting
 * dominates, ~74% in the paper), a greedy local planner and PID
 * control. Pipeline threads: 8 -> 1 -> 1.
 */

#include "workloads/robots.hh"

#include <cmath>

#include "robotics/control.hh"
#include "robotics/mcl.hh"

namespace tartan::workloads {

using namespace tartan::robotics;

RunResult
runDeliBot(const MachineSpec &spec, const WorkloadOptions &opt)
{
    RunResult result;
    result.robot = "DeliBot";

    Machine machine(spec, opt);
    auto &core = machine.core();
    auto &mem = machine.mem();
    Pipeline pipeline(core);
    tartan::sim::Rng rng(opt.seed);
    tartan::sim::Arena arena(24ull << 20);
    machine.mapArena(arena);

    const auto k_raycast = core.registerKernel("raycast");
    const auto k_plan = core.registerKernel("greedy");
    const auto k_control = core.registerKernel("pid");

    // Environment: heterogeneous warehouse floor.
    const std::uint32_t dim = std::max<std::uint32_t>(
        192, static_cast<std::uint32_t>(768 * std::sqrt(opt.scale)));
    OccupancyGrid2D grid(dim, dim, arena);
    grid.makeHeterogeneous(rng, 0.01, 0.04);

    MclConfig mcl_cfg;
    mcl_cfg.particles = std::max<std::uint32_t>(
        16, static_cast<std::uint32_t>(144 * opt.scale));
    mcl_cfg.raysPerScan = 12;
    mcl_cfg.ray.maxRange = dim / 4.0;
    Mcl mcl(mcl_cfg, arena);

    // Inter-stage observation buffer: a producer-consumer structure
    // eligible for the write-through MTRR treatment.
    double *obs_buffer = arena.alloc<double>(mcl_cfg.raysPerScan);
    if (spec.wtQueues)
        machine.system().mem().addWriteThroughRange(
            reinterpret_cast<tartan::sim::Addr>(obs_buffer),
            mcl_cfg.raysPerScan * sizeof(double));

    OrientedEngine &engine = machine.orientedEngine(opt.tier, opt.oriented);

    // Find a free start cell and goal.
    Pose2 truth{dim * 0.18, dim * 0.5, 0.0};
    while (grid.occupied(static_cast<std::uint32_t>(truth.x),
                         static_cast<std::uint32_t>(truth.y)))
        truth.y += 3.0;
    const Vec2 goal{dim * 0.85, dim * 0.55};

    mcl.init(truth, 4.0, rng);
    Pid heading_pid(0.8, 0.05, 0.1);

    // Laser readings pass through the fault layer, then a sanitizer
    // that holds the last good value on drops/NaNs and clamps spikes.
    tartan::sim::GuardedSensor laser(opt.faults, 0.0,
                                     mcl_cfg.ray.maxRange);

    const std::uint32_t frames = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(10 * opt.scale));
    Pose2 estimate = truth;
    for (std::uint32_t frame = 0; frame < frames; ++frame) {
        ScopedPhase roi(core, "frame " + std::to_string(frame));
        // --- Perception (8 threads): MCL over the laser scan --------
        std::vector<double> observed;
        pipeline.serial([&] {
            ScopedKernel scope(core, k_raycast);
            observed = mcl.scanFrom(mem, grid, truth, engine);
            for (std::uint32_t r = 0; r < mcl_cfg.raysPerScan; ++r) {
                observed[r] = laser.read(observed[r]);
                mem.storev(obs_buffer + r, observed[r], mcl_pc::particle);
            }
        });
        pipeline.stage(8, mcl_cfg.particles, [&](std::uint32_t i) {
            ScopedKernel scope(core, k_raycast);
            mcl.weighParticle(mem, grid, observed, engine, i);
        });
        pipeline.serial([&] {
            ScopedKernel scope(core, k_raycast);
            mcl.normalizeWeights(mem);
            mcl.resample(mem, rng);
            estimate = mcl.estimate(mem);
        });

        // --- Planning (1 thread): greedy step towards the goal ------
        Vec2 target;
        pipeline.serial([&] {
            ScopedKernel scope(core, k_plan);
            target = greedyStep(mem, Vec2{estimate.x, estimate.y}, goal,
                                4.0);
            // Candidate-neighbour scoring.
            for (int n = 0; n < 8; ++n) {
                grid.read(mem,
                          static_cast<std::uint32_t>(
                              std::clamp(target.x + (n % 3) - 1.0, 1.0,
                                         dim - 2.0)),
                          static_cast<std::uint32_t>(
                              std::clamp(target.y + (n / 3) - 1.0, 1.0,
                                         dim - 2.0)),
                          mcl_pc::particle);
                mem.exec(6);
            }
        });

        // --- Control (1 thread): PID on the heading error -----------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_control);
            const double desired =
                std::atan2(target.y - estimate.y, target.x - estimate.x);
            const double steer = heading_pid.step(
                mem, wrapAngle(desired - truth.theta), 0.1);
            truth.theta = wrapAngle(truth.theta + 0.4 * steer);
            mem.exec(10);
        });

        // Advance the true pose; stay off obstacles.
        const double nx = truth.x + 2.5 * std::cos(truth.theta);
        const double ny = truth.y + 2.5 * std::sin(truth.theta);
        if (!grid.occupied(static_cast<std::uint32_t>(
                               std::clamp(nx, 1.0, dim - 2.0)),
                           static_cast<std::uint32_t>(
                               std::clamp(ny, 1.0, dim - 2.0)))) {
            truth.x = std::clamp(nx, 1.0, dim - 2.0);
            truth.y = std::clamp(ny, 1.0, dim - 2.0);
        } else {
            truth.theta = wrapAngle(truth.theta + 0.8);
        }
        const double dxm = 2.5 * std::cos(truth.theta);
        const double dym = 2.5 * std::sin(truth.theta);
        mcl.predict(mem, dxm, dym, 0.0, rng);
    }

    result.metrics["locErrorCells"] =
        dist2(estimate.x, estimate.y, truth.x, truth.y);
    if (opt.faults) {
        result.metrics["faultsInjected"] =
            double(opt.faults->stats().total());
        result.metrics["recoveries"] =
            double(laser.recoveries() + mcl.health().skippedRays +
                   mcl.health().weightResets);
    }
    summarize(machine, pipeline, result);
    return result;
}

} // namespace tartan::workloads
