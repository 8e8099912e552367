/**
 * @file
 * Oriented vectorisation (OVEC) and the designs it is compared against
 * (paper §IV, §VIII-A).
 *
 *  - OvecEngine: Tartan's O_MOVE instruction. One vector instruction
 *    per batch; an in-hardware address generator produces the per-lane
 *    addresses org + floor(i * orient) in 5 cycles (one FP add plus a
 *    simplified multiply, constants from [78], [154]); lanes issue to
 *    the memory system in parallel and checks run on the vector ALU.
 *  - GatherEngine: the software reference built on VGATHERDPS. The
 *    lane indices floor(i * orient) must be computed and packed by
 *    ordinary instructions, whose count erases the vectorisation win.
 *  - RacodEngine: a RACOD-style ASIC that performs address generation
 *    *and* occupancy checking autonomously, exchanging only final
 *    outcomes with the CPU.
 */

#ifndef TARTAN_CORE_OVEC_HH
#define TARTAN_CORE_OVEC_HH

#include <cstdint>

#include "robotics/oriented.hh"

namespace tartan::core {

using robotics::Mem;
using robotics::OrientedEngine;

/** Tartan's oriented vector load unit. */
class OvecEngine : public OrientedEngine
{
  public:
    /**
     * @param lanes vector width (16 single-precision lanes in AVX-512)
     * @param ag_latency in-hardware address-generation latency
     */
    explicit OvecEngine(std::uint32_t lanes = 16,
                        tartan::sim::Cycles ag_latency = 5)
        : vectorLanes(lanes), agLatency(ag_latency)
    {
    }

    void load(Mem &mem, const float *data, std::size_t size, double start,
              double stride, std::uint32_t lanes, float *out,
              robotics::PcId pc) override;
    void chargeCheck(Mem &mem, std::uint32_t lanes) override;
    std::uint32_t preferredLanes() const override { return vectorLanes; }
    const char *name() const override { return "ovec"; }

    /** Area of one OVEC address generator in um^2 (overhead table). */
    static double unitAreaUm2() { return 64.5; }

  private:
    std::uint32_t vectorLanes;
    tartan::sim::Cycles agLatency;
};

/** Software gather reference (VGATHERDPS). */
class GatherEngine : public OrientedEngine
{
  public:
    explicit GatherEngine(std::uint32_t lanes = 16) : vectorLanes(lanes) {}

    void load(Mem &mem, const float *data, std::size_t size, double start,
              double stride, std::uint32_t lanes, float *out,
              robotics::PcId pc) override;
    void chargeCheck(Mem &mem, std::uint32_t lanes) override;
    std::uint32_t preferredLanes() const override { return vectorLanes; }
    const char *name() const override { return "gather"; }

  private:
    std::uint32_t vectorLanes;
};

/** RACOD-style collision/ray-casting ASIC. */
class RacodEngine : public OrientedEngine
{
  public:
    /** @param throughput cells processed per accelerator cycle */
    explicit RacodEngine(std::uint32_t batch = 8, double throughput = 2.0)
        : batchSize(batch), cellsPerCycle(throughput)
    {
    }

    void load(Mem &mem, const float *data, std::size_t size, double start,
              double stride, std::uint32_t lanes, float *out,
              robotics::PcId pc) override;
    void chargeCheck(Mem &mem, std::uint32_t lanes) override;
    std::uint32_t preferredLanes() const override { return batchSize; }
    const char *name() const override { return "racod"; }

  private:
    std::uint32_t batchSize;
    double cellsPerCycle;
};

/** Compute the lane cells exactly as the hardware would. */
void generateOrientedCells(const float *data, std::size_t size,
                           double start, double stride,
                           std::uint32_t lanes, const float **cells);

} // namespace tartan::core

#endif // TARTAN_CORE_OVEC_HH
