/**
 * @file
 * Collision-detection kernel implementations.
 */

#include "robotics/collision.hh"

#include <cmath>

namespace tartan::robotics {

namespace {

/** Start index and stride of one sweep line of the footprint. */
struct SweepLine {
    double start;
    double stride;
    std::uint32_t steps;
};

SweepLine
sweepLine(const OccupancyGrid2D &grid, const Pose2 &pose,
          const Footprint &fp, std::uint32_t line)
{
    // Lines run lengthwise, offset sideways across the width.
    const double frac =
        fp.sweepLines <= 1
            ? 0.0
            : (static_cast<double>(line) / (fp.sweepLines - 1) - 0.5);
    const double off = frac * fp.width;
    const double ox = pose.x - off * std::sin(pose.theta);
    const double oy = pose.y + off * std::cos(pose.theta);
    const double dx = std::cos(pose.theta);
    const double dy = std::sin(pose.theta);
    SweepLine out;
    out.start = oy * grid.width() + ox;
    out.stride = dy * grid.width() + dx;
    out.steps = static_cast<std::uint32_t>(fp.length);
    return out;
}

std::size_t
clampCell(double idx, std::size_t size)
{
    if (idx < 0.0)
        return 0;
    const auto cell = static_cast<std::size_t>(idx);
    return cell >= size ? size - 1 : cell;
}

} // namespace

bool
footprintCollides(Mem &mem, const OccupancyGrid2D &grid, const Pose2 &pose,
                  const Footprint &fp, OrientedEngine &engine)
{
    mem.exec(10);  // pose trig and line setup
    const std::size_t size = grid.cells();
    float batch[64];
    for (std::uint32_t line = 0; line < fp.sweepLines; ++line) {
        const SweepLine sl = sweepLine(grid, pose, fp, line);
        std::uint32_t done = 0;
        while (done < sl.steps) {
            const std::uint32_t lanes =
                std::min<std::uint32_t>(engine.preferredLanes(),
                                        std::min<std::uint32_t>(
                                            64u, sl.steps - done));
            engine.load(mem, grid.data(), size,
                        sl.start + sl.stride * done, sl.stride, lanes,
                        batch, collision_pc::footprint);
            engine.chargeCheck(mem, lanes);
            for (std::uint32_t i = 0; i < lanes; ++i)
                if (batch[i] > kOccupied)
                    return true;
            done += lanes;
        }
    }
    return false;
}

bool
footprintCollidesReference(const OccupancyGrid2D &grid, const Pose2 &pose,
                           const Footprint &fp)
{
    const std::size_t size = grid.cells();
    for (std::uint32_t line = 0; line < fp.sweepLines; ++line) {
        const SweepLine sl = sweepLine(grid, pose, fp, line);
        double idx = sl.start;
        for (std::uint32_t s = 0; s < sl.steps; ++s) {
            if (grid.data()[clampCell(idx, size)] > kOccupied)
                return true;
            idx += sl.stride;
        }
    }
    return false;
}

bool
cuboidsCollide(Mem &mem, const Cuboid *robot, std::size_t robot_count,
               const Cuboid *obstacles, std::size_t first, std::size_t last)
{
    bool hit = false;
    for (std::size_t o = first; o < last; ++o) {
        // Load the obstacle cuboid (center + half extents, 6 doubles).
        mem.loadv(&obstacles[o].center.x, collision_pc::cuboid,
                  MemDep::Independent);
        mem.loadv(&obstacles[o].halfExtent.x, collision_pc::cuboid,
                  MemDep::Independent);
        for (std::size_t r = 0; r < robot_count; ++r) {
            mem.exec(9);  // three axis tests, three abs, three adds
            if (robot[r].overlaps(obstacles[o]))
                hit = true;  // CCCD scans all pairs (speed over accuracy)
        }
    }
    return hit;
}

} // namespace tartan::robotics
