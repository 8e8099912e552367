/**
 * @file
 * Top-level simulated system: builds the cache hierarchy, memory path
 * and core from one configuration struct.
 *
 * The machine models the Intel Core i7-10610U of NASA's Valkyrie
 * (paper §III-A): 4 OoO cores, 32 KB L1-D (4 cycles), 256 KB L2
 * (14 cycles), 8 MB shared L3 (45 cycles), dual-channel DDR4-2666.
 * The fixed machine is a set of constants (`static constexpr` members
 * of SysConfig, CoreParams, MemPathParams, UncoreParams and the Tartan
 * unit configs): code reads them, nothing can assign them. Only the
 * parameters an experiment varies — line size, prefetcher, FCP, core
 * count and the few uncore knobs — are settable fields.
 */

#ifndef TARTAN_SIM_SYSTEM_HH
#define TARTAN_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/memsystem.hh"
#include "sim/types.hh"
#include "sim/uncore.hh"

namespace tartan::sim {

class FaultInjector;
class TraceSession;

/** Prefetchers constructible by the base simulator (ANL lives above). */
enum class PrefetcherKind { None, NextLine, Bingo };

/**
 * Whole-system configuration. The Valkyrie cache geometry and latencies
 * are constants: no experiment varies them, so they are not knobs.
 */
struct SysConfig {
    std::uint32_t lineBytes = 64;  //!< cache-line size at every level

    static constexpr std::uint32_t l1Size = 32 * 1024;  //!< L1-D bytes
    static constexpr std::uint32_t l1Assoc = 8;         //!< L1-D ways
    static constexpr Cycles l1Latency = 4;              //!< L1-D hit

    static constexpr std::uint32_t l2Size = 256 * 1024;  //!< L2 bytes
    static constexpr std::uint32_t l2Assoc = 8;          //!< L2 ways
    static constexpr Cycles l2Latency = 14;              //!< L2 hit

    static constexpr std::uint32_t l3Size = 8 * 1024 * 1024;  //!< L3 bytes
    static constexpr std::uint32_t l3Assoc = 16;              //!< L3 ways
    /** L3 hit latency (defined with the memory path that charges it). */
    static constexpr Cycles l3Latency = MemPathParams::l3Latency;
    /** Flat DRAM latency of the single-core path. */
    static constexpr Cycles dramLatency = MemPathParams::dramLatency;

    /**
     * Cores actually instantiated. 1 builds the historical single-core
     * machine — byte-identical to pre-multi-core builds (null-hook
     * guarantee). Values > 1 build one private L1/L2 + core per slot
     * behind a shared coherent uncore (MESI snooping, sliced-L3
     * crossbar, banked DRAM controller).
     */
    std::uint32_t simCores = 1;

    /** Crossbar/coherence/DRAM-bank knobs; used only when simCores>1. */
    UncoreParams uncore;

    CoreParams core;  //!< core timing parameters (issue width, ...)
    /** Hardware prefetcher wired into each private path. */
    PrefetcherKind prefetcher = PrefetcherKind::None;

    /** FCP at the private L2 (paper §VII). */
    bool fcpEnabled = false;
    std::uint32_t fcpRegionBytes = 1024;  //!< FCP partition region size
    std::uint32_t fcpXorBits = 2;  //!< FcpParams::foldBits
    /** FCP insertion-priority decay function (paper Fig. 13). */
    FcpParams::Func fcpFunc = FcpParams::Func::XSquared;
    /**
     * Also partition the shared L3 (the paper's suggested extension for
     * graph-intensive applications with high L3 miss rates, §VIII-D).
     */
    bool fcpAtL3 = false;

    /** Track unnecessary data movement at the L1. */
    bool trackUdm = false;

    /**
     * Time-resolved tracing hook (not owned; null = tracing off). When
     * set, the core's kernel timeline, the epoch sampler probes and the
     * memory path's per-PC attribution are wired into the session at
     * construction. Observational only: timing is bit-identical with
     * and without a session. The session must outlive the System,
     * whose destructor detaches the probes.
     */
    TraceSession *trace = nullptr;

    /**
     * Fault-injection hook (not owned; null = faults off). When set,
     * the memory path may suffer latency spikes and prefetcher
     * blackouts per the injector's plan. With no injector the system's
     * timing is bit-identical to an unfaulted build (null-hook
     * guarantee).
     */
    FaultInjector *faults = nullptr;
};

/**
 * One simulated machine: simCores cores with private L1/L2 paths, the
 * shared L3, and (when simCores > 1) the coherent uncore tying them
 * together. simCores == 1 is the historical single-core machine.
 */
class System
{
  public:
    explicit System(const SysConfig &config);
    /**
     * Takes the trace session's final partial-epoch sample and detaches
     * its probes: the session usually finalizes after the machine is
     * gone, and its probes point into this machine's caches and core.
     */
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Core @p i (default: core 0, the historical single core). */
    Core &core(std::size_t i = 0) { return *cores[i]; }
    /** Memory path of core @p i (default: core 0). */
    MemPath &mem(std::size_t i = 0) { return *paths[i]; }
    Cache &l3() { return *l3Cache; }  //!< the shared L3
    /** Instantiated core count (== config().simCores, min 1). */
    std::size_t coreCount() const { return cores.size(); }
    /** Shared uncore; null on the single-core machine. */
    Uncore *uncore() { return uncoreModel.get(); }
    const SysConfig &config() const { return cfg; }  //!< as constructed

    /**
     * Check every cross-counter invariant of the machine: each core's
     * kernel and CPI partitions, each path's prefetch accounting, and
     * the uncore's DRAM row accounting. Panics on a violation, which
     * is a simulator bug, never bad input.
     */
    void checkInvariants() const;

  private:
    SysConfig cfg;
    std::unique_ptr<Cache> l3Cache;
    std::unique_ptr<Uncore> uncoreModel;
    std::vector<std::unique_ptr<MemPath>> paths;
    std::vector<std::unique_ptr<Core>> cores;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_SYSTEM_HH
