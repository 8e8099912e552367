/**
 * @file
 * Top-level simulated system: builds the cache hierarchy, memory path
 * and core from one configuration struct, and provides the multi-thread
 * pipeline-stage timing helper.
 *
 * The baseline configuration models the Intel Core i7-10610U of NASA's
 * Valkyrie (paper §III-A): 4 OoO cores, 32 KB L1-D (4 cycles), 256 KB L2
 * (14 cycles), 8 MB shared L3 (45 cycles), dual-channel DDR4-2666.
 */

#ifndef TARTAN_SIM_SYSTEM_HH
#define TARTAN_SIM_SYSTEM_HH

#include <algorithm>
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

/** Whole-system configuration. */
struct SysConfig {
    std::uint32_t lineBytes = 64;  //!< cache-line size at every level

    std::uint32_t l1Size = 32 * 1024;  //!< private L1-D capacity (bytes)
    std::uint32_t l1Assoc = 8;         //!< L1-D associativity (ways)
    Cycles l1Latency = 4;              //!< L1-D hit latency

    std::uint32_t l2Size = 256 * 1024;  //!< private L2 capacity (bytes)
    std::uint32_t l2Assoc = 8;          //!< L2 associativity (ways)
    Cycles l2Latency = 14;              //!< L2 hit latency

    std::uint32_t l3Size = 8 * 1024 * 1024;  //!< shared L3 capacity
    std::uint32_t l3Assoc = 16;              //!< L3 associativity (ways)
    Cycles l3Latency = 45;                   //!< L3 hit latency

    Cycles dramLatency = 200;  //!< flat DRAM latency (single-core path)

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

/**
 * Pipeline-stage thread model.
 *
 * Work items of a stage run sequentially on the simulated core while
 * their individual durations are recorded; the stage's wall-clock
 * contribution is the longest-processing-time-first makespan over the
 * effective thread count. This reproduces the paper's observations on
 * uneven work distribution and latency hiding without host threads.
 */
class StageTimer
{
  public:
    explicit StageTimer(Core &core) : coreRef(core) {}

    /** Begin timing one work item. */
    void
    beginItem()
    {
        itemStart = coreRef.cycles();
    }

    /** Finish timing one work item. */
    void
    endItem()
    {
        durations.push_back(coreRef.cycles() - itemStart);
    }

    /** Total work cycles across all items. */
    Cycles
    totalWork() const
    {
        Cycles acc = 0;
        for (Cycles d : durations)
            acc += d;
        return acc;
    }

    /** LPT makespan over @p workers parallel workers. */
    Cycles
    makespan(std::uint32_t workers) const
    {
        if (durations.empty() || workers == 0)
            return 0;
        std::vector<Cycles> sorted(durations);
        std::sort(sorted.begin(), sorted.end(),
                  [](Cycles a, Cycles b) { return a > b; });
        std::vector<Cycles> bins(std::min<std::size_t>(workers,
                                                       sorted.size()),
                                 0);
        for (Cycles d : sorted) {
            auto it = std::min_element(bins.begin(), bins.end());
            *it += d;
        }
        return *std::max_element(bins.begin(), bins.end());
    }

    std::size_t items() const { return durations.size(); }

    /** Forget all recorded items so the timer can time another stage. */
    void
    reset()
    {
        durations.clear();
        itemStart = 0;
    }

  private:
    Core &coreRef;
    Cycles itemStart = 0;
    std::vector<Cycles> durations;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_SYSTEM_HH
