/**
 * @file
 * Quickstart: simulate a robotic kernel on the baseline machine and on
 * Tartan, and read the results.
 *
 * Builds a simulated system, creates an occupancy grid, casts laser
 * rays with the scalar baseline and with Tartan's OVEC oriented vector
 * loads, and prints cycle/instruction counts — the 60-second tour of
 * the library's three layers (sim, robotics, core).
 */

#include <cstdio>

#include "core/ovec.hh"
#include "robotics/geometry.hh"
#include "robotics/grid.hh"
#include "robotics/raycast.hh"
#include "sim/arena.hh"
#include "sim/system.hh"

using namespace tartan;

namespace {

/** Cast a full laser scan and return (cycles, instructions). */
std::pair<sim::Cycles, std::uint64_t>
scanWith(robotics::OrientedEngine &engine, const sim::Arena &arena,
         const robotics::OccupancyGrid2D &grid)
{
    // A simulated machine: 4-wide OoO core, 32 KB L1 / 256 KB L2 /
    // 8 MB L3 (the paper's upgraded baseline). The grid's arena maps
    // linearly into its address space, keeping the grid's layout.
    sim::SysConfig cfg;
    cfg.lineBytes = 32;
    sim::System machine(cfg);
    machine.mem().mapSegment(arena.base(), arena.capacityBytes());
    robotics::Mem mem(&machine.core());

    robotics::RayConfig ray;
    ray.maxRange = 80.0;
    // Three successive scans, as MCL's pose hypotheses would issue:
    // the map neighbourhood warms up after the first sweep.
    for (int round = 0; round < 4; ++round)
        for (int i = 0; i < 64; ++i) {
            const double theta = i * 2.0 * robotics::kPi / 64.0;
            castRay(mem, grid, 190.0 + round, 192.0, theta, ray,
                    engine);
        }
    return {machine.core().cycles(), machine.core().instructions()};
}

} // namespace

int
main()
{
    std::printf("Tartan quickstart: oriented vectorisation of a laser "
                "scan\n\n");

    // 1. A synthetic environment: 384x384 occupancy grid with obstacles.
    sim::Arena arena(16 << 20);
    robotics::OccupancyGrid2D grid(384, 384, arena);
    sim::Rng rng(2024);
    grid.scatterObstacles(rng, 0.012, 5);

    // 2. The same functional kernel under two microarchitectures.
    robotics::ScalarOrientedEngine scalar;  // today's CPUs
    core::OvecEngine ovec;                  // Tartan's O_MOVE

    auto [base_cycles, base_instr] = scanWith(scalar, arena, grid);
    auto [ovec_cycles, ovec_instr] = scanWith(ovec, arena, grid);

    std::printf("%-22s %14s %14s\n", "", "cycles", "instructions");
    std::printf("%-22s %14llu %14llu\n", "scalar baseline",
                static_cast<unsigned long long>(base_cycles),
                static_cast<unsigned long long>(base_instr));
    std::printf("%-22s %14llu %14llu\n", "Tartan OVEC",
                static_cast<unsigned long long>(ovec_cycles),
                static_cast<unsigned long long>(ovec_instr));
    std::printf("\nOVEC speedup: %.2fx with %.1fx fewer dynamic "
                "instructions\n",
                double(base_cycles) / double(ovec_cycles),
                double(base_instr) / double(ovec_instr));
    std::printf("\nNext: run the examples/ binaries for end-to-end "
                "robots, and bench/ for the paper's figures.\n");
    return 0;
}
