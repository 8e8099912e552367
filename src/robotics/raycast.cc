/**
 * @file
 * Ray-casting kernel implementation.
 */

#include "robotics/raycast.hh"

#include <algorithm>
#include <cmath>

namespace tartan::robotics {

namespace {

/** Clamp a fractional flattened index to a valid cell. */
std::size_t
clampCell(double idx, std::size_t size)
{
    if (idx < 0.0)
        return 0;
    const auto cell = static_cast<std::size_t>(idx);
    return cell >= size ? size - 1 : cell;
}

} // namespace

double
castRay(Mem &mem, const OccupancyGrid2D &grid, double ox, double oy,
        double theta, const RayConfig &cfg, OrientedEngine &engine,
        LocalVoxelStorage *lvs)
{
    const double dx = cfg.step * std::cos(theta);
    const double dy = cfg.step * std::sin(theta);
    const double stride = dy * grid.width() + dx;
    double start = oy * grid.width() + ox;
    mem.exec(8);  // trig + stride setup (sin/cos table lookup)

    const std::uint32_t lanes =
        engine.preferredLanes() > 64 ? 64 : engine.preferredLanes();
    const std::size_t size = grid.cells();
    float batch[64];

    double travelled = 0.0;
    while (travelled < cfg.maxRange) {
        // Never fetch past the maximum range (bounds the overfetch a
        // vector batch pays when the ray terminates early).
        const double remaining = (cfg.maxRange - travelled) / cfg.step;
        const std::uint32_t batch_lanes = std::min<std::uint32_t>(
            lanes, remaining < 1.0
                       ? 1u
                       : static_cast<std::uint32_t>(remaining + 0.999));
        engine.load(mem, grid.data(), size, start, stride, batch_lanes,
                    batch, raycast_pc::map);
        engine.chargeCheck(mem, batch_lanes);

        // High-accuracy mode refines samples with interpolation, but
        // only up to the first coarse hit (two-pass structure: the
        // batched load is a coarse screen, interpolation the fine
        // test), so a vector batch does not overfetch interpolation
        // work past the hit.
        std::uint32_t interp_lanes = batch_lanes;
        if (cfg.interpolate) {
            for (std::uint32_t i = 0; i < batch_lanes; ++i) {
                if (batch[i] > kOccupied) {
                    interp_lanes = i + 1;
                    break;
                }
            }
        }

        if (cfg.interpolate) {
            if (cfg.interpOnAccelerator) {
                // The accelerator interpolates in hardware (two
                // samples per cycle); its local voxel storage absorbs
                // neighbour references, with a small first-touch cost
                // per newly resident voxel.
                std::uint32_t fresh = 0;
                if (lvs) {
                    double idx = start;
                    for (std::uint32_t i = 0; i < interp_lanes; ++i) {
                        if (!lvs->lookup(clampCell(idx, size)))
                            ++fresh;
                        idx += stride;
                    }
                }
                if (mem.attached())
                    mem.core()->stall(interp_lanes / 2 + 2 * fresh);
            } else {
                // Software trilinear interpolation: neighbour reads
                // plus seven lerps and the fractional-weight setup.
                double idx = start;
                for (std::uint32_t i = 0; i < interp_lanes; ++i) {
                    const std::size_t cell = clampCell(idx, size);
                    const std::size_t right =
                        cell + 1 < size ? cell + 1 : cell;
                    const std::size_t down =
                        cell + grid.width() < size ? cell + grid.width()
                                                   : cell;
                    const std::size_t diag =
                        down + 1 < size ? down + 1 : down;
                    mem.loadv(grid.data() + right, raycast_pc::interp);
                    mem.loadv(grid.data() + down, raycast_pc::interp);
                    mem.loadv(grid.data() + diag, raycast_pc::interp);
                    mem.exec(25);
                    idx += stride;
                }
            }
        }

        for (std::uint32_t i = 0; i < batch_lanes; ++i) {
            if (batch[i] > kOccupied)
                return travelled + static_cast<double>(i) * cfg.step;
        }
        start += stride * batch_lanes;
        travelled += cfg.step * batch_lanes;
    }
    return cfg.maxRange;
}

double
castRayReference(const OccupancyGrid2D &grid, double ox, double oy,
                 double theta, const RayConfig &cfg)
{
    const double dx = cfg.step * std::cos(theta);
    const double dy = cfg.step * std::sin(theta);
    const double stride = dy * grid.width() + dx;
    double idx = oy * grid.width() + ox;
    const std::size_t size = grid.cells();

    double travelled = 0.0;
    while (travelled < cfg.maxRange) {
        if (grid.data()[clampCell(idx, size)] > kOccupied)
            return travelled;
        idx += stride;
        travelled += cfg.step;
    }
    return cfg.maxRange;
}

} // namespace tartan::robotics
