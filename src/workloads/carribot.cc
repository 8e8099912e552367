/**
 * @file
 * CarriBot: a Boxbot-like factory transporter. Probabilistic occupancy
 * map (POM) perception, A* in (x, y, theta) with precise footprint
 * collision checking (the dominant kernel, ~81% in the paper), DMP
 * control. The paper's pipeline runs 1 -> 4 -> 1 threads; the wall
 * model charges all three stages as serial sections, with no discount
 * for planning's four threads.
 */

#include "workloads/robots.hh"

#include <algorithm>
#include <cmath>

#include "robotics/astar.hh"
#include "robotics/collision.hh"
#include "robotics/control.hh"

namespace tartan::workloads {

using namespace tartan::robotics;

namespace {

/** (x, y, theta) lattice helpers. */
struct Se2Lattice {
    std::uint32_t width;
    std::uint32_t height;
    static constexpr std::uint32_t headings = 8;

    std::uint32_t
    id(std::uint32_t x, std::uint32_t y, std::uint32_t th) const
    {
        return (th * height + y) * width + x;
    }

    void
    decode(std::uint32_t s, std::uint32_t &x, std::uint32_t &y,
           std::uint32_t &th) const
    {
        x = s % width;
        y = (s / width) % height;
        th = s / (static_cast<std::size_t>(width) * height);
    }

    std::uint32_t states() const
    {
        return width * height * headings;
    }
};

} // namespace

RunResult
runCarriBot(const MachineSpec &spec, const WorkloadOptions &opt)
{
    RunResult result;
    result.robot = "CarriBot";

    Machine machine(spec, opt);
    auto &core = machine.core();
    auto &mem = machine.mem();
    Pipeline pipeline(core);
    tartan::sim::Rng rng(opt.seed + 5);
    tartan::sim::Arena arena(48ull << 20);
    machine.mapArena(arena);

    const auto k_pom = core.registerKernel("pom");
    const auto k_collision = core.registerKernel("collision");
    const auto k_search = core.registerKernel("astar");
    const auto k_control = core.registerKernel("dmp");

    const std::uint32_t dim = std::max<std::uint32_t>(
        96, static_cast<std::uint32_t>(224 * std::sqrt(opt.scale)));
    OccupancyGrid2D grid(dim, dim, arena);
    grid.makeForkedCorridors(3);
    grid.scatterObstacles(rng, 0.01, 4);
    // The occupancy map is written by streaming POM sensor updates and
    // consumed by the planner: an MTRR WT region when enabled.
    if (spec.wtQueues)
        machine.system().mem().addWriteThroughRange(
            reinterpret_cast<tartan::sim::Addr>(grid.data()),
            grid.cells() * sizeof(float));

    Se2Lattice lattice{dim, dim, };
    SearchArrays arrays(lattice.states(), arena);

    Footprint fp;
    fp.length = 10.0;
    fp.width = 3.0;
    fp.sweepLines = 3;
    OrientedEngine &engine = machine.orientedEngine(opt.tier, opt.oriented);

    // Start/goal in the left/right open areas. The motion primitives
    // move 0 or +-2 cells per step, so (x, y) parity is invariant:
    // snap the goal to a start-parity cell whose footprint (heading 0)
    // is collision-free and clear of the border wall.
    const std::uint32_t sx = dim / 12, sy = dim / 2;
    std::uint32_t gx = std::min<std::uint32_t>(
        dim - dim / 6 + 6,
        dim - 4 - static_cast<std::uint32_t>(fp.length));
    std::uint32_t gy = dim / 2;
    gx -= (gx - sx) % 2;
    gy -= (gy - sy) % 2;
    {
        bool placed = false;
        for (std::uint32_t ring = 0; ring < 20 && !placed; ++ring) {
            for (std::int64_t dy2 = -std::int64_t(ring);
                 dy2 <= std::int64_t(ring) && !placed; ++dy2) {
                for (std::int64_t dx2 = -std::int64_t(ring);
                     dx2 <= std::int64_t(ring) && !placed; ++dx2) {
                    const std::int64_t cx = gx + 2 * dx2;
                    const std::int64_t cy = gy + 2 * dy2;
                    if (cx < 2 || cy < 2 || cx >= dim - 2 ||
                        cy >= dim - 2)
                        continue;
                    const Pose2 pose{double(cx), double(cy), 0.0};
                    if (!footprintCollidesReference(grid, pose, fp)) {
                        gx = static_cast<std::uint32_t>(cx);
                        gy = static_cast<std::uint32_t>(cy);
                        placed = true;
                    }
                }
            }
        }
    }

    const double step_len = 2.0;
    auto expand = [&](Mem &m, std::uint32_t s,
                      std::vector<Successor> &out) {
        ScopedKernel scope(core, k_collision);
        std::uint32_t x, y, th;
        lattice.decode(s, x, y, th);
        // Motion primitives: forward, forward-left, forward-right,
        // turn-in-place both ways.
        struct Prim {
            int dth;
            double len;
        };
        static const Prim prims[5] = {
            {0, 1.0}, {1, 1.1}, {-1, 1.1}, {2, 0.0}, {-2, 0.0}};
        for (const Prim &p : prims) {
            const std::uint32_t nth =
                (th + Se2Lattice::headings + p.dth) %
                Se2Lattice::headings;
            const double ang =
                2.0 * kPi * nth / Se2Lattice::headings;
            const std::int64_t nx =
                x + static_cast<std::int64_t>(
                        std::lround(p.len * step_len * std::cos(ang)));
            const std::int64_t ny =
                y + static_cast<std::int64_t>(
                        std::lround(p.len * step_len * std::sin(ang)));
            m.execFp(10);
            if (!grid.inBounds(nx, ny))
                continue;
            const Pose2 pose{static_cast<double>(nx),
                             static_cast<double>(ny), ang};
            if (footprintCollides(m, grid, pose, fp, engine))
                continue;
            const float cost = static_cast<float>(
                p.len * step_len + (p.dth != 0 ? 0.4 : 0.0) + 0.2);
            out.push_back(Successor{
                lattice.id(static_cast<std::uint32_t>(nx),
                           static_cast<std::uint32_t>(ny), nth),
                cost});
        }
    };

    HeuristicFn heuristic = [&](Mem &m, std::uint32_t s) {
        std::uint32_t x, y, th;
        lattice.decode(s, x, y, th);
        m.execFp(6);
        return dist2(x, y, gx, gy);
    };

    const std::uint32_t frames = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(5 * opt.scale));
    SearchResult plan;
    // One DMP reused across frames: learn() refits the weights from
    // scratch each frame, so hoisting is behaviour-neutral, but it
    // keeps the basis/weight arrays (address-instrumented in
    // forcing()) at one stable location instead of a fresh heap
    // allocation per frame.
    Dmp dmp(16, 1.0);
    std::vector<double> demo(24);
    for (std::size_t k = 0; k < demo.size(); ++k)
        demo[k] = static_cast<double>(k) / demo.size();
    // Each POM beam's effective range passes through the fault layer: a
    // dropped/NaN beam falls back to the last good range, spikes clamp
    // to the sensor's physical reach.
    tartan::sim::GuardedSensor beam_range(opt.faults, 1.0, dim / 6.0);
    for (std::uint32_t frame = 0; frame < frames; ++frame) {
        ScopedPhase roi(core, "frame " + std::to_string(frame));
        // --- Perception (1 thread): POM beam updates ----------------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_pom);
            const double ox = sx + frame * 2.0, oy = sy;
            for (std::uint32_t beam = 0; beam < 24; ++beam) {
                const double ang = 2.0 * kPi * beam / 24;
                double bx = ox, by = oy;
                const auto max_steps = static_cast<std::uint32_t>(
                    beam_range.read(dim / 6.0));
                for (std::uint32_t step = 0; step < max_steps; ++step) {
                    bx += std::cos(ang);
                    by += std::sin(ang);
                    if (bx < 1 || by < 1 || bx >= dim - 1 ||
                        by >= dim - 1)
                        break;
                    const auto cx = static_cast<std::uint32_t>(bx);
                    const auto cy = static_cast<std::uint32_t>(by);
                    if (grid.occupied(cx, cy)) {
                        grid.update(mem, cx, cy, 0.0f, collision_pc::
                                    footprint);
                        break;
                    }
                    grid.update(mem, cx, cy, 0.0f,
                                collision_pc::footprint);
                    mem.execFp(4);
                }
            }
        });

        // --- Planning: A* with precise collision (4 threads in the
        // paper; charged serially) -----------------------------------
        if (frame == 0) {
            pipeline.serial([&] {
                ScopedKernel scope(core, k_search);
                plan = weightedAStar(
                    mem, arrays, lattice.id(sx, sy, 0),
                    lattice.id(gx, gy, 0), expand, heuristic, 1.0);
            });
        }

        // --- Control (1 thread): DMP along the planned path ---------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_control);
            dmp.learn(mem, demo, 0.05);
            dmp.rollout(mem, 0.0, 1.0, 0.05, 24);
        });
    }

    result.metrics["planCost"] = plan.found ? plan.cost : -1.0;
    result.metrics["planExpansions"] =
        static_cast<double>(plan.expansions);
    if (opt.faults) {
        result.metrics["faultsInjected"] =
            double(opt.faults->stats().total());
        result.metrics["recoveries"] = double(beam_range.recoveries());
    }
    summarize(machine, pipeline, result);
    return result;
}

} // namespace tartan::workloads
