/**
 * @file
 * OVEC / Gather / RACOD engine implementations.
 */

#include "core/ovec.hh"


namespace tartan::core {

using tartan::sim::Addr;

void
generateOrientedCells(const float *data, std::size_t size, double start,
                      double stride, std::uint32_t lanes,
                      const float **cells)
{
    double idx = start;
    for (std::uint32_t i = 0; i < lanes; ++i) {
        std::int64_t cell = static_cast<std::int64_t>(idx);
        if (cell < 0)
            cell = 0;
        if (cell >= static_cast<std::int64_t>(size))
            cell = static_cast<std::int64_t>(size) - 1;
        cells[i] = data + cell;
        idx += stride;
    }
}

void
OvecEngine::load(Mem &mem, const float *data, std::size_t size,
                 double start, double stride, std::uint32_t lanes,
                 float *out, robotics::PcId pc)
{
    const float *cells[64];
    generateOrientedCells(data, size, start, stride, lanes, cells);
    for (std::uint32_t i = 0; i < lanes; ++i)
        out[i] = *cells[i];

    if (!mem.attached())
        return;
    Addr addrs[64];
    for (std::uint32_t i = 0; i < lanes; ++i)
        addrs[i] = reinterpret_cast<Addr>(cells[i]);
    // One O_MOVE instruction: hardware address generation then all
    // lanes issued to the memory system concurrently. The AG unit's
    // cycles are OVEC wait in the CPI stack.
    mem.core()->vecLoadLanes({addrs, lanes}, pc, agLatency,
                             /*lane_size=*/4, tartan::sim::CpiCat::Ovec);
}

void
OvecEngine::chargeCheck(Mem &mem, std::uint32_t lanes)
{
    (void)lanes;
    if (!mem.attached())
        return;
    // Vector compare against the occupancy threshold plus a mask test.
    mem.core()->vecOp(1);
    mem.exec(1);
}

void
GatherEngine::load(Mem &mem, const float *data, std::size_t size,
                   double start, double stride, std::uint32_t lanes,
                   float *out, robotics::PcId pc)
{
    const float *cells[64];
    generateOrientedCells(data, size, start, stride, lanes, cells);
    for (std::uint32_t i = 0; i < lanes; ++i)
        out[i] = *cells[i];

    if (!mem.attached())
        return;
    // Software index generation: for each lane, multiply, floor,
    // convert and insert into the index register (paper §VIII-A: these
    // added instructions offset the vectorisation benefit).
    mem.exec(8ull * lanes);
    Addr addrs[64];
    for (std::uint32_t i = 0; i < lanes; ++i)
        addrs[i] = reinterpret_cast<Addr>(cells[i]);
    // The VGATHERDPS instruction itself.
    mem.core()->vecLoadLanes({addrs, lanes}, pc, /*ag_latency=*/0);
}

void
GatherEngine::chargeCheck(Mem &mem, std::uint32_t lanes)
{
    (void)lanes;
    if (!mem.attached())
        return;
    mem.core()->vecOp(1);
    mem.exec(1);
}

void
RacodEngine::load(Mem &mem, const float *data, std::size_t size,
                  double start, double stride, std::uint32_t lanes,
                  float *out, robotics::PcId pc)
{
    const float *cells[64];
    generateOrientedCells(data, size, start, stride, lanes, cells);
    for (std::uint32_t i = 0; i < lanes; ++i)
        out[i] = *cells[i];

    if (!mem.attached())
        return;
    Addr addrs[64];
    for (std::uint32_t i = 0; i < lanes; ++i)
        addrs[i] = reinterpret_cast<Addr>(cells[i]);
    // The ASIC walks the trajectory autonomously: no CPU instructions,
    // only accelerator cycles and the memory traffic.
    const tartan::sim::Cycles device =
        static_cast<tartan::sim::Cycles>(
            static_cast<double>(lanes) / cellsPerCycle);
    mem.core()->deviceLoadLanes({addrs, lanes}, pc, device);
}

void
RacodEngine::chargeCheck(Mem &mem, std::uint32_t lanes)
{
    // Checking happens inside the accelerator; the CPU only polls the
    // outcome once per batch.
    (void)lanes;
    mem.exec(1);
}

} // namespace tartan::core
