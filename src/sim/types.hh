/**
 * @file
 * Fundamental simulator types shared across the Tartan code base.
 */

#ifndef TARTAN_SIM_TYPES_HH
#define TARTAN_SIM_TYPES_HH

#include <cstdint>

namespace tartan::sim {

/** A (simulated) virtual byte address. Real heap pointers are used. */
using Addr = std::uint64_t;

/**
 * Ceiling base-2 logarithm: the smallest b with (1 << b) >= v. For the
 * power-of-two geometry values it is applied to (line sizes, lines per
 * region) this is the exact bit width of the field.
 */
constexpr std::uint32_t
log2u(std::uint32_t v)
{
    std::uint32_t bits = 0;
    while ((1u << bits) < v)
        ++bits;
    return bits;
}

/** Simulated clock cycles. */
using Cycles = std::uint64_t;

/** Identifier of a static load/store site, standing in for the PC. */
using PcId = std::uint32_t;

/** Levels of the memory hierarchy an access can be serviced from. */
enum class MemLevel : std::uint8_t { L1 = 0, L2, L3, Dram, NumLevels };

/** Demand access type. */
enum class AccessType : std::uint8_t { Load, Store, Prefetch };

/**
 * Memory-level-parallelism hint attached to a load stream.
 *
 * Dependent streams (pointer chasing) expose no MLP and pay the full miss
 * latency; independent streams (array scans) overlap misses up to the
 * core's miss-overlap window.
 */
enum class MemDep : std::uint8_t { Independent, Dependent };

/** Outcome of a memory-system access. */
struct AccessResult {
    Cycles latency = 0;       //!< total latency observed by the core
    MemLevel level = MemLevel::L1;  //!< level that serviced the access
    bool prefetchHit = false;       //!< hit on a prefetched line
    /** Of latency: residual wait on a late (in-flight) prefetch. */
    Cycles lateCycles = 0;
    /** Of latency: injected fault latency spike (sim/fault). */
    Cycles faultCycles = 0;
    /** Of latency: coherence snoop/upgrade/forward wait (sim/uncore). */
    Cycles coherenceCycles = 0;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_TYPES_HH
