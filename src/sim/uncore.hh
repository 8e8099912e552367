/**
 * @file
 * Multi-core uncore: the shared fabric between N private cache
 * hierarchies and DRAM, in three layers (mcsim's PTSDirectory /
 * PTSXbar / PTSMemoryController layering, collapsed to the parts this
 * model needs):
 *
 *  - a snoop-based MESI coherence fabric over the private L1/L2 pairs
 *    (invalidation on remote write, downgrade on remote read, dirty
 *    lines forwarded through the shared L3);
 *  - a crossbar hop-latency model between core ports and the
 *    address-interleaved L3 slices (the L3's tag store stays one
 *    structure — slicing is a routing/latency model, not a capacity
 *    split);
 *  - a banked DRAM memory controller with open-row timing, bank
 *    conflicts, and FR-FCFS-flavoured ordering (row hits jump part of
 *    the bank queue).
 *
 * The uncore is strictly opt-in: a MemPath with no uncore attached
 * runs the exact pre-multi-core code paths, which is what keeps every
 * single-core BENCH payload byte-identical. All state here is driven
 * synchronously from the requesting core's clock, so fleet replays
 * interleaved min-cycle-first stay deterministic.
 */

#ifndef TARTAN_SIM_UNCORE_HH
#define TARTAN_SIM_UNCORE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace tartan::sim {

class Cache;
class MemPath;

/**
 * Static configuration of the shared uncore. Slices route by the shared
 * L3's own line size; the slice count and DRAM row timing are constants.
 */
struct UncoreParams {
    static constexpr std::uint32_t l3Slices = 4;  //!< L3 slices
    Cycles xbarHopLatency = 3;        //!< crossbar latency per hop
    std::uint32_t dramBanks = 8;      //!< independent DRAM banks
    static constexpr std::uint32_t dramRowBytes = 2048;  //!< row-buffer size
    static constexpr Cycles dramRowHitLatency = 160;  //!< open-row access
    /** Activate + precharge + access. */
    static constexpr Cycles dramRowMissLatency = 230;
    Cycles coherenceLatency = 16;     //!< snoop round / upgrade cost
};

/** Event counters of the coherence fabric. */
struct CoherenceStats {
    std::uint64_t snoops = 0;        //!< miss/upgrade snoop rounds issued
    std::uint64_t invalidations = 0; //!< remote lines invalidated (RFO)
    std::uint64_t downgrades = 0;    //!< remote lines demoted M/E -> S
    std::uint64_t dirtyForwards = 0; //!< modified lines forwarded via L3
    std::uint64_t upgrades = 0;      //!< local S -> M store upgrades
    std::uint64_t sharedFills = 0;   //!< fills installed in Shared state
};

/** Event counters of the crossbar. */
struct XbarStats {
    std::uint64_t traversals = 0;  //!< core <-> slice crossings
    std::uint64_t hops = 0;        //!< total hops across all traversals
};

/** Event counters of the memory controller. */
struct MemCtrlStats {
    std::uint64_t reads = 0;          //!< line fetches from DRAM
    std::uint64_t writes = 0;         //!< line write-backs to DRAM
    std::uint64_t rowHits = 0;        //!< requests hitting the open row
    std::uint64_t rowMisses = 0;      //!< requests opening a new row
    std::uint64_t bankConflicts = 0;  //!< requests that found the bank busy
    std::uint64_t conflictCycles = 0; //!< total cycles spent waiting on banks
};

/**
 * The shared uncore of one multi-core System. Construction wires the
 * shared L3; each MemPath registers through attach(), which returns
 * its core id (attachment order = core id). MemPath calls back in on
 * every private-hierarchy miss (resolveMiss), store-to-Shared upgrade
 * (storeUpgrade), L3 traversal (xbarCost) and DRAM transfer
 * (dramRead/dramWrite); with no uncore attached none of these paths
 * run, so single-core timing is untouched.
 */
class Uncore
{
  public:
    /** What a coherence miss resolution did for the requester. */
    struct MissAction {
        /** Added snoop/forward latency (CPI category: coherence). */
        Cycles cycles = 0;
        /** Remote copies survive: install the fill in Shared state. */
        bool shared = false;
    };

    /**
     * @param params uncore configuration (slices, banks, latencies)
     * @param shared_l3 the shared last-level cache (not owned)
     */
    Uncore(const UncoreParams &params, Cache *shared_l3);

    /**
     * Register one private hierarchy; returns its core id. Attachment
     * order defines core ids (core 0 first), matching System's path
     * construction order.
     */
    std::uint32_t attach(MemPath *path);

    /**
     * Resolve the coherence side of a private-hierarchy miss by core
     * @p core on the line at @p line_addr: snoop every other attached
     * hierarchy, invalidate (write) or downgrade (read) remote copies,
     * and forward a remote Modified line into the shared L3 so the
     * requester's fetch hits it there. Charged only when a remote copy
     * actually existed (a precise snoop filter is assumed).
     */
    MissAction resolveMiss(std::uint32_t core, Addr line_addr,
                           bool is_write, Cycles now);

    /**
     * A store by core @p core hit a line it holds in Shared state:
     * invalidate the remote copies and clear the local Shared marks so
     * the store's dirty bit takes the line S -> M. Returns the upgrade
     * latency (charged unconditionally — ownership must be acquired
     * even when every remote copy has since been evicted).
     */
    Cycles storeUpgrade(std::uint32_t core, Addr line_addr);

    /**
     * Crossbar traversal cost from core @p core to the L3 slice owning
     * @p line_addr: one hop onto the ring plus the ring distance
     * between the core's port and the slice.
     */
    Cycles xbarCost(std::uint32_t core, Addr line_addr);

    /** Largest latency xbarCost() can return (level classification). */
    Cycles
    maxXbarCost() const
    {
        return config.xbarHopLatency * (1 + config.l3Slices / 2);
    }

    /**
     * A line fetch from DRAM at cycle @p now: bank queueing (conflict
     * wait, halved for open-row hits — the FR-FCFS approximation) plus
     * row-hit or row-miss service latency.
     */
    Cycles dramRead(Addr line_addr, Cycles now);

    /**
     * A line write-back to DRAM at cycle @p now: occupies the bank and
     * rotates its open row but charges the requester nothing (write
     * buffers retire off the critical path).
     */
    void dramWrite(Addr line_addr, Cycles now);

    /**
     * Panic unless the DRAM row and bank-conflict accounting balances
     * (2 checks). A violation is a simulator bug.
     */
    void checkInvariants() const;

    /** The configuration this uncore was built from. */
    const UncoreParams &params() const { return config; }
    /** Coherence-fabric counters. */
    const CoherenceStats &coherence() const { return coherenceData; }
    /** Crossbar counters. */
    const XbarStats &xbar() const { return xbarData; }
    /** Memory-controller counters. */
    const MemCtrlStats &memctrl() const { return memctrlData; }

  private:
    struct Bank {
        Cycles busyUntil = 0;
        std::uint64_t openRow = ~std::uint64_t(0);
    };

    std::uint32_t sliceOf(Addr line_addr) const;
    Bank &bankOf(Addr line_addr, std::uint64_t *row);
    /** Bank wait + service time shared by reads and writes. */
    Cycles bankAccess(Addr line_addr, Cycles now, bool charge_wait);

    UncoreParams config;
    Cache *l3Cache;
    std::vector<MemPath *> paths;
    std::vector<Bank> banks;
    CoherenceStats coherenceData;
    XbarStats xbarData;
    MemCtrlStats memctrlData;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_UNCORE_HH
