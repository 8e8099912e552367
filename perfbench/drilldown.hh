/**
 * @file
 * Single-layer loops for the benchmark's traced run. Each one takes a
 * cell's captured op stream and feeds it through one layer of the
 * simulator from outside, through that layer's public functions:
 *
 *  - translateStream: AddrMap::translate over every host address the
 *    stream touches (the addrmap layer);
 *  - l1Stream: an L1 Cache alone, Cache::access (+ fill on a miss) over
 *    the translated stream (the cache layer);
 *  - pathStream: a fresh MemPath, MemPath::access / accessRange with the
 *    stream's segments, write-through and no-allocate ranges, with or
 *    without the machine's prefetcher (memsystem and prefetch layers).
 *
 * Only memory operations are fed; robot compute and Core accounting are
 * what is left of a cell once these are subtracted. The MemPath loop
 * reproduces the cell's L1/L2 demand counters exactly, because every
 * hit/miss decision is a pure function of the access sequence; the
 * caller checks that and reports any gap as a failed drill-down.
 */

#ifndef TARTAN_PERFBENCH_DRILLDOWN_HH
#define TARTAN_PERFBENCH_DRILLDOWN_HH

#include <cstdint>
#include <vector>

#include "sim/capture.hh"
#include "workloads/common.hh"

namespace tartan::perfbench {

/** One translated demand access (line-split like MemPath does). */
struct SimAccess {
    tartan::sim::Addr addr = 0;
    std::uint32_t size = 0;
    bool store = false;
};

/** Demand and prefetch counters of one MemPath drill-down. */
struct PathCounts {
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Traffic = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfUseful = 0;  //!< timely + late prefetch hits
};

/**
 * Translate every host address of @p trace through a fresh AddrMap
 * (biased by @p space_bias, as core i of a fleet is) into @p out.
 * Returns the host seconds of the translation loop; @p translates
 * receives the number of translate() calls.
 */
double translateStream(const tartan::sim::CaptureTrace &trace,
                       std::uint32_t line_bytes,
                       tartan::sim::Addr space_bias,
                       std::vector<SimAccess> &out,
                       std::uint64_t *translates);

/**
 * Feed @p stream through a lone L1 built from @p sys. Returns host
 * seconds; @p accesses and @p misses receive the L1's counters.
 */
double l1Stream(const std::vector<SimAccess> &stream,
                const tartan::sim::SysConfig &sys,
                std::uint64_t *accesses, std::uint64_t *misses);

/**
 * Feed the memory operations of @p trace through a fresh single-core
 * MemPath of @p spec (with its prefetcher when @p with_prefetcher).
 * Returns host seconds of the access loop; @p counts receives the
 * path's counters after the end-of-run dirty drain.
 */
double pathStream(const tartan::sim::CaptureTrace &trace,
                  const workloads::MachineSpec &spec, bool with_prefetcher,
                  tartan::sim::Addr space_bias, PathCounts *counts);

/** True when @p spec wires any L2 prefetcher (ANL, Next-Line, Bingo). */
bool hasPrefetcher(const workloads::MachineSpec &spec);

} // namespace tartan::perfbench

#endif // TARTAN_PERFBENCH_DRILLDOWN_HH
