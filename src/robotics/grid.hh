/**
 * @file
 * Occupancy grids (2D and 3D) backed by arena storage, plus synthetic
 * environment generators with controllable sparse/dense structure.
 *
 * Every cell holds the occupancy probability as a float, matching
 * RoWild's occupancy-grid representation (paper §IV-B). The grids are
 * the memory substrate for ray casting, collision detection, MCL and
 * the graph-search planners.
 */

#ifndef TARTAN_ROBOTICS_GRID_HH
#define TARTAN_ROBOTICS_GRID_HH

#include <cstdint>

#include "robotics/trace.hh"
#include "sim/arena.hh"
#include "sim/rng.hh"

namespace tartan::robotics {

/** Occupancy threshold above which a cell counts as an obstacle. */
inline constexpr float kOccupied = 0.5f;

/** 2D occupancy grid. */
class OccupancyGrid2D
{
  public:
    OccupancyGrid2D(std::uint32_t width, std::uint32_t height,
                    tartan::sim::Arena &arena);

    std::uint32_t width() const { return gridW; }
    std::uint32_t height() const { return gridH; }
    std::size_t cells() const
    {
        return static_cast<std::size_t>(gridW) * gridH;
    }

    float *data() { return cellData; }
    const float *data() const { return cellData; }

    bool
    inBounds(std::int64_t x, std::int64_t y) const
    {
        return x >= 0 && y >= 0 && x < gridW && y < gridH;
    }

    std::size_t
    indexOf(std::uint32_t x, std::uint32_t y) const
    {
        return static_cast<std::size_t>(y) * gridW + x;
    }

    /** Raw (uninstrumented) cell access for setup and verification. */
    float &at(std::uint32_t x, std::uint32_t y)
    {
        return cellData[indexOf(x, y)];
    }
    float at(std::uint32_t x, std::uint32_t y) const
    {
        return cellData[indexOf(x, y)];
    }

    bool
    occupied(std::uint32_t x, std::uint32_t y) const
    {
        return at(x, y) > kOccupied;
    }

    /** Instrumented probability read. */
    float
    read(Mem &mem, std::uint32_t x, std::uint32_t y, PcId pc) const
    {
        return mem.loadv(cellData + indexOf(x, y), pc);
    }

    /** Instrumented log-odds style update (POM perception). */
    void
    update(Mem &mem, std::uint32_t x, std::uint32_t y, float delta,
           PcId pc)
    {
        float *cell = cellData + indexOf(x, y);
        float v = mem.loadv(cell, pc) + delta;
        v = v < 0.0f ? 0.0f : (v > 1.0f ? 1.0f : v);
        mem.storev(cell, v, pc);
        mem.exec(3);
    }

    // --- Environment generators -----------------------------------

    /** Fill with free space and a solid border wall. */
    void clearWithBorder();
    /** Rectangular obstacle [x0,x1) x [y0,y1). */
    void addRect(std::uint32_t x0, std::uint32_t y0, std::uint32_t x1,
                 std::uint32_t y1);
    /** Random square obstacles covering roughly @p density of the area. */
    void scatterObstacles(tartan::sim::Rng &rng, double density,
                          std::uint32_t max_size = 8);
    /**
     * Split the map into a sparse half (few obstacles) and a dense half
     * (cluttered); drives the density heterogeneity ANL exploits.
     */
    void makeHeterogeneous(tartan::sim::Rng &rng, double sparse_density,
                           double dense_density);
    /**
     * Two large obstacles that fork routes into multiple diverged paths
     * (the FCP motivating scenario, paper Fig. 5.a).
     */
    void makeForkedCorridors(std::uint32_t lanes = 3);

  private:
    std::uint32_t gridW;
    std::uint32_t gridH;
    float *cellData;
};

/** 3D occupancy grid (FlyBot's airspace). */
class OccupancyGrid3D
{
  public:
    OccupancyGrid3D(std::uint32_t width, std::uint32_t height,
                    std::uint32_t depth, tartan::sim::Arena &arena);

    std::uint32_t width() const { return gridW; }
    std::uint32_t height() const { return gridH; }
    std::uint32_t depth() const { return gridD; }
    std::size_t cells() const
    {
        return static_cast<std::size_t>(gridW) * gridH * gridD;
    }

    float *data() { return cellData; }

    bool
    inBounds(std::int64_t x, std::int64_t y, std::int64_t z) const
    {
        return x >= 0 && y >= 0 && z >= 0 && x < gridW && y < gridH &&
               z < gridD;
    }

    std::size_t
    indexOf(std::uint32_t x, std::uint32_t y, std::uint32_t z) const
    {
        return (static_cast<std::size_t>(z) * gridH + y) * gridW + x;
    }

    float &at(std::uint32_t x, std::uint32_t y, std::uint32_t z)
    {
        return cellData[indexOf(x, y, z)];
    }

    bool
    occupied(std::uint32_t x, std::uint32_t y, std::uint32_t z) const
    {
        return cellData[indexOf(x, y, z)] > kOccupied;
    }

    float
    read(Mem &mem, std::uint32_t x, std::uint32_t y, std::uint32_t z,
         PcId pc) const
    {
        return mem.loadv(cellData + indexOf(x, y, z), pc);
    }

    /** Free space with floor/ceiling and random building-like blocks. */
    void makeCity(tartan::sim::Rng &rng, std::uint32_t buildings);

  private:
    std::uint32_t gridW;
    std::uint32_t gridH;
    std::uint32_t gridD;
    float *cellData;
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_GRID_HH
