/**
 * @file
 * Oriented-load engine interface (paper §IV).
 *
 * Kernels such as ray casting and (x, y, theta) collision checking read
 * an occupancy array along an *oriented* trajectory: lane i reads
 * data[floor(start + i * stride)]. The engine abstraction lets the same
 * kernel run with the scalar baseline, Tartan's OVEC instruction, the
 * software Gather reference, or a RACOD-style ASIC, each with its own
 * timing behaviour (the implementations beyond scalar live in
 * src/core/ovec.hh).
 */

#ifndef TARTAN_ROBOTICS_ORIENTED_HH
#define TARTAN_ROBOTICS_ORIENTED_HH

#include <cstdint>

#include "robotics/trace.hh"

namespace tartan::robotics {

/** Engine executing oriented batched loads with model-specific timing. */
class OrientedEngine
{
  public:
    virtual ~OrientedEngine() = default;

    /**
     * Load @p lanes oriented samples: out[i] = data[floor(start+i*stride)]
     * (indices clamped into [0, size)).
     *
     * @param mem instrumentation handle
     * @param data base of the occupancy array
     * @param size element count of the array
     * @param start fractional starting element index
     * @param stride fractional per-lane element stride (the flattened
     *        orientation, e.g. dy * width + dx)
     * @param pc load-site identifier
     */
    virtual void load(Mem &mem, const float *data, std::size_t size,
                      double start, double stride, std::uint32_t lanes,
                      float *out, PcId pc) = 0;

    /** Charge the per-batch occupancy-check cost (compare + mask test). */
    virtual void chargeCheck(Mem &mem, std::uint32_t lanes) = 0;

    /** Lanes processed per invocation (vector width; 1 for scalar). */
    virtual std::uint32_t preferredLanes() const = 0;

    virtual const char *name() const = 0;
};

/**
 * Scalar baseline: the software walks the trajectory cell by cell.
 * Each step's address depends on the previous one (idx += stride), so
 * besides the per-cell instructions the core pays the latency of the
 * FP dependency chain — the serialisation OVEC's hardware address
 * generator eliminates (paper §IV-C).
 */
class ScalarOrientedEngine : public OrientedEngine
{
  public:
    void
    load(Mem &mem, const float *data, std::size_t size, double start,
         double stride, std::uint32_t lanes, float *out, PcId pc) override
    {
        double idx = start;
        for (std::uint32_t i = 0; i < lanes; ++i) {
            mem.exec(3);  // index advance, round, bounds
            if (mem.attached())
                mem.core()->stall(2);  // FP address-chain latency
            std::int64_t cell = static_cast<std::int64_t>(idx);
            if (cell < 0)
                cell = 0;
            if (cell >= static_cast<std::int64_t>(size))
                cell = static_cast<std::int64_t>(size) - 1;
            out[i] = mem.loadv(data + cell, pc);
            idx += stride;
        }
    }

    void
    chargeCheck(Mem &mem, std::uint32_t lanes) override
    {
        mem.exec(lanes);  // one compare/branch per cell
    }

    std::uint32_t preferredLanes() const override { return 1; }
    const char *name() const override { return "scalar"; }
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_ORIENTED_HH
