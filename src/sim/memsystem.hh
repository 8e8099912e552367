/**
 * @file
 * Per-core memory path: private L1 and L2, shared L3, DRAM backend,
 * an L2-attached prefetcher, write-through (MTRR-style) ranges, and
 * selective-caching (no-allocate) ranges.
 *
 * One address walk and one hierarchy walk serve every access. Every
 * path owns an AddrMap from construction, so no host address reaches
 * a cache untranslated. The Core translates each host address once
 * through the AddrMap TLB and hands both addresses to accessAt(), which
 * resolves an L1 hit with one Cache::lookup call (out of line in the
 * release build); replay hands it the simulated address its capture
 * recorded and translates nothing. An L1 miss continues in accessMiss(): L2
 * lookup, prefetch issue, L3 fetch, fills and the victim write-back
 * chain, in that order. The fault, trace and uncore
 * hooks are null-checked branches at the points where they act, so a
 * path with none attached pays one predictable branch per hook.
 *
 * The L1 has three modes, one predictable branch on a plain run. A path
 * with a capture attached records the L1's outcomes into the capture
 * (every demand lookup's hit bit, every fill's dirty victim, and at the
 * drain its config and counters). A replay path whose L1 config matches
 * a capture's runs no L1 at all: replayL1() reads those outcomes back,
 * because for a fixed op stream they depend only on the L1 config.
 */

#ifndef TARTAN_SIM_MEMSYSTEM_HH
#define TARTAN_SIM_MEMSYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/addrmap.hh"
#include "sim/cache.hh"
#include "sim/capture.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/prefetcher.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace tartan::sim {

class Uncore;

/** Configuration of one core's memory path. */
struct MemPathParams {
    CacheParams l1;  //!< private first-level cache
    CacheParams l2;  //!< private second-level cache
    static constexpr Cycles l3Latency = 45;    //!< shared-L3 hit latency
    static constexpr Cycles dramLatency = 200; //!< DRAM latency beyond L3
    /** Cycle spacing between queued prefetch fills (DRAM burst model). */
    static constexpr Cycles prefetchBurst = 8;
};

/** Traffic and prefetch statistics of one memory path. */
struct MemPathStats {
    std::uint64_t l3Accesses = 0;   //!< demand + prefetch L3 lookups
    std::uint64_t l3Writebacks = 0; //!< dirty L2 victims written to L3
    std::uint64_t dramReads = 0;    //!< L3 miss fetches
    std::uint64_t dramWrites = 0;   //!< dirty L3 victims + WT stores
    std::uint64_t wtStores = 0;     //!< stores absorbed by WT ranges
    std::uint64_t pfIssued = 0;     //!< prefetch fills issued to L2
    std::uint64_t pfDropped = 0;    //!< prefetch candidates dropped
    std::uint64_t pfHitsTimely = 0; //!< prefetch fully hid the miss
    std::uint64_t pfHitsLate = 0;   //!< prefetch arrived late
    std::uint64_t pfLateCycles = 0; //!< residual cycles paid on late hits
    /**
     * Prefetched lines consumed outside the demand-miss path: touched
     * by a write-back fill or a write-through store update. Keeping
     * these distinct from the timely/late demand hits is what makes
     * the cache-side and path-side prefetch counters sum consistently.
     */
    std::uint64_t pfHitsOther = 0;

    /** Total L3-side traffic events (lookups plus writebacks). */
    std::uint64_t l3Traffic() const { return l3Accesses + l3Writebacks; }
};

/**
 * The memory path walks L1 -> L2 -> L3 -> DRAM, modelling a
 * non-inclusive hierarchy with write-back write-allocate caches.
 */
class MemPath
{
  public:
    /**
     * @param params private-cache configuration
     * @param shared_l3 the shared last-level cache (not owned)
     */
    MemPath(const MemPathParams &params, Cache *shared_l3);

    /**
     * Perform a demand access to host address @p addr and return the
     * observed latency: accessAt() at addrTranslator()->translate(addr).
     *
     * @param now current core cycle (prefetch timeliness)
     */
    AccessResult
    access(Addr addr, AccessType type, std::uint32_t size, PcId pc,
           Cycles now)
    {
        return accessAt(addr, addrMap->translate(addr), type, size, pc,
                        now);
    }

    /**
     * A demand access whose translation is already known: @p host
     * drives the write-through and no-allocate range checks, @p sim is
     * what the caches see. The one hierarchy walk; every hook acts
     * here or in accessMiss() at the point it models. Replay calls it
     * with the simulated address its capture recorded, so it never
     * translates.
     */
    AccessResult
    accessAt(Addr host, Addr sim, AccessType type, std::uint32_t size,
             PcId pc, Cycles now)
    {
        if (faults) {
            // Cell-layer faults first: an injected crash/hang models
            // the whole run dying *at* this access, so no further state
            // of this access should be mutated when it fires.
            faults->cellFault();
        }
        AccessResult result;
        if (type == AccessType::Store && !wtRanges.empty() &&
            inRange(wtRanges, host)) {
            writeThroughStore(sim, size, now, result);
        } else {
            result.latency = config.l1.latency;
            if (uncoreHook && type == AccessType::Store)
                upgradeShared(sim, result);
            const bool hit = l1Mode == L1Mode::Live
                                 ? l1Cache.access(sim, type, size, now).hit
                                 : l1LoggedAccess(sim, type, size, now);
            if (hit)
                result.level = MemLevel::L1;
            else
                accessMiss(host, sim, type, size, pc, now, result);
        }
        if (faults) {
            // Tagged as well as added: the CPI stack must charge
            // injected spikes to the fault category, not to the
            // hierarchy level the access happened to be serviced from.
            const Cycles penalty = faults->memPenalty();
            result.latency += penalty;
            result.faultCycles += penalty;
        }
        if (trace)
            trace->pcAccess(pc, result.level, type);
        return result;
    }

    /**
     * Access every cache line of the contiguous host span
     * [base, base+bytes) as independent loads (a wide vector load) and
     * return the worst per-line result: accessRangeAt() at the span's
     * translation (AddrMap::translateSpan). The Core translates spans
     * itself; this form serves callers that hold only host addresses.
     */
    AccessResult accessRange(Addr base, std::uint32_t bytes, PcId pc,
                             Cycles now);

    /**
     * accessRange() with the span's simulated image @p sim already
     * known. A linear span (no grains) walks host lines, one access
     * per line: its (sim - host) offset is a multiple of 2 MB, so
     * simulated and host line boundaries coincide. Any other span
     * walks its grains and accesses each distinct simulated line once.
     * Either way the line count follows from the span's size and the
     * replay machine's line size, not from the host base's offset
     * within a line, so a span captured at one line size replays
     * exactly at another.
     */
    AccessResult accessRangeAt(Addr base, std::uint32_t bytes,
                               const SpanImage &sim, PcId pc, Cycles now);

    /**
     * True when a demand access to @p host, which translates to
     * @p sim, now provably stays inside this core's L1/L2: it cannot
     * reach the shared L3, the uncore or a hook. The proof covers an
     * L1 hit, a write-through store and, with no prefetcher attached,
     * an L2 hit whose L1 victim is clean or whose write-back hits the
     * L2; a store also needs that no line is Shared anywhere
     * (Uncore::mayHoldShared). False is always safe. It changes no
     * state. A path replaying its L1 answers the L1 questions (hit,
     * dirty victim) from the next recorded outcomes.
     */
    bool staysPrivate(Addr host, Addr sim, AccessType type) const;

    /**
     * staysPrivate() for the linear span accessRangeAt(@p base,
     * @p bytes, ...) would walk: true when every line of it hits the
     * L1. Only a path replaying its L1 can tell without probing, from
     * the next recorded hit bits; any other path says false.
     */
    bool spanStaysPrivate(Addr base, std::uint32_t bytes) const;

    /**
     * Replay the L1 from @p outcomes (a capture's L1 section) instead
     * of running it, when the section matches this path's L1 config
     * (L1Outcomes::matches); returns whether it does. Demand lookups
     * then read the next hit bit, fills take their dirty victims from
     * the section (plus this path's space bias), the write-through
     * update skips its L1 lookup, and the drain installs the capture's
     * final L1 counters, so l1().stats() reads them after drainDirty().
     * Exact while nothing but this path's own demand fills touches the
     * L1: a coherence action that reaches it panics (coherentL1()).
     * Builds with TARTAN_DCHECK active also run the L1 and check every
     * outcome, and at the drain its counters and that the section was
     * consumed exactly. @p outcomes must outlive the path.
     */
    bool replayL1(const L1Outcomes &outcomes);

    /** True when this path replays its L1 (replayL1()). */
    bool replaysL1() const { return l1Mode == L1Mode::Replay; }

    /**
     * The L1 a coherence action on @p line_addr inspects. A path
     * replaying its L1 holds no lines, so it may be asked only about
     * lines outside its own simulated space, which none of its accesses
     * cached; anything else panics, since only true sharing brings a
     * core's line to another core.
     */
    Cache &
    coherentL1(Addr line_addr)
    {
        TARTAN_ASSERT(l1Mode != L1Mode::Replay ||
                          !addrMap->inSpace(line_addr),
                      "a snoop reached a path replaying its L1");
        return l1Cache;
    }

    /**
     * Does nothing: every path translates from construction. Kept only
     * because the frozen host-performance benchmark
     * (perfbench/drilldown.cc) still calls it; delete it with the next
     * benchmark change.
     */
    void enableDeterministicAddressing() {}
    /** Register an arena as a linearly-mapped AddrMap segment. */
    void mapSegment(Addr base, std::size_t bytes);
    /**
     * The translator of this path's host addresses; never null. Host
     * addresses map into a deterministic simulated address space
     * (registered arena segments linearly, everything else through a
     * 16-byte-grain first-touch table), so cache behaviour is
     * bit-identical across runs regardless of heap ASLR or which
     * thread's malloc arena the workload allocated from. Write-through
     * and no-allocate ranges keep matching on *host* addresses. A
     * replay leaves it empty and reads only its space bias: the
     * capture already holds the simulated addresses.
     */
    AddrMap *addrTranslator() { return addrMap.get(); }

    /** Attach (or replace) the L2 prefetcher. */
    void setPrefetcher(std::unique_ptr<Prefetcher> pf);
    /** The attached prefetcher, or null. */
    Prefetcher *prefetcher() { return pf.get(); }

    /**
     * Attach (or detach, with nullptr) a trace session: every demand
     * access is attributed to its PcId site and servicing level. Purely
     * observational — never changes latencies or cache state.
     */
    void setTrace(TraceSession *session) { trace = session; }

    /**
     * Attach (or detach, with nullptr) a fault injector: demand
     * accesses may be charged latency spikes and prefetch issue may be
     * suppressed during blackout windows. With no injector attached the
     * path's timing is bit-identical to an unfaulted build.
     */
    void setFaultInjector(FaultInjector *inj) { faults = inj; }

    /**
     * Attach (or detach, with nullptr) a capture session: address-space
     * registrations (mapSegment, write-through and no-allocate ranges)
     * are recorded in stream order for replay and, when the L1 has not
     * been accessed yet, the L1's outcomes (every demand lookup's hit
     * bit, every fill's dirty victim, and at the drain its config and
     * counters) into the session's L1 section. Purely observational.
     */
    void setCapture(CaptureSession *session);

    /**
     * Attach this path to a shared uncore as core @p core_id (must
     * match the id the uncore's attach() returned for this path). On a
     * coherent path store upgrades, miss snoops, crossbar hops and
     * banked DRAM timing all resolve through the uncore; a path with no
     * uncore has the exact pre-multi-core timing.
     */
    void
    attachUncore(Uncore *uncore, std::uint32_t core_id)
    {
        uncoreHook = uncore;
        pathId = core_id;
    }

    /** The attached uncore, or null on a single-core path. */
    Uncore *uncore() { return uncoreHook; }

    /** Declare a write-through (MTRR WT) range [base, base+bytes). */
    void addWriteThroughRange(Addr base, std::size_t bytes);
    /**
     * End-of-run drain: account the write-back traffic the resident
     * dirty private-cache lines will eventually cost the L3.
     * Idempotent — a second call (a double finish()) adds nothing, so
     * l3Writebacks cannot be double-counted.
     */
    void drainDirty();
    /** Declare a no-allocate (streaming load) range. */
    void addNoAllocateRange(Addr base, std::size_t bytes);

    /**
     * Private first-level data cache. On a path replaying its L1 it
     * holds no lines, and its counters are zero until the drain.
     */
    Cache &l1() { return l1Cache; }
    /** Private second-level cache (prefetcher fill target). */
    Cache &l2() { return l2Cache; }
    /** Shared last-level cache. */
    Cache &l3() { return *l3Cache; }

    /**
     * Panic unless the end-to-end prefetch accounting balances across
     * the prefetcher, this path and its L2 (5 checks). A violation is
     * a simulator bug.
     */
    void checkInvariants() const;

    /** Path-level traffic and prefetch counters. */
    MemPathStats stats;
    /** The configuration this path was built from. */
    const MemPathParams &params() const { return config; }

  private:
    /** Where the L1's outcomes come from. */
    enum class L1Mode : std::uint8_t {
        Live,    //!< the L1 runs
        Record,  //!< the L1 runs; a capture records its outcomes
        Replay,  //!< a capture's outcomes stand in for the L1
    };

    /** TARTAN_DCHECK builds run a replayed L1 too and check it. */
#ifdef NDEBUG
    static constexpr bool kCheckReplayedL1 = false;
#else
    static constexpr bool kCheckReplayedL1 = true;
#endif

    /** A demand L1 lookup on a path that records or replays its L1. */
    bool
    l1LoggedAccess(Addr sim, AccessType type, std::uint32_t size,
                   Cycles now)
    {
        if (l1Mode == L1Mode::Replay) {
            const bool hit = l1Replay.nextHit();
            if constexpr (kCheckReplayedL1)
                TARTAN_ASSERT(l1Cache.access(sim, type, size, now).hit == hit,
                              "replayed L1 hit bit disagrees with the L1");
            return hit;
        }
        const bool hit = l1Cache.access(sim, type, size, now).hit;
        capture->l1Lookup(hit);
        return hit;
    }

    /** Fill the L1 with a demand line; returns the displaced line. */
    Cache::Eviction l1Fill(Addr sim, bool store);

    struct Range {
        Addr base;
        Addr limit;
        bool contains(Addr a) const { return a >= base && a < limit; }
    };

    bool
    inRange(const std::vector<Range> &ranges, Addr addr) const
    {
        for (const Range &r : ranges)
            if (r.contains(addr))
                return true;
        return false;
    }

    /**
     * Write-through store: update resident copies without dirtying,
     * stream the store to memory, and never allocate.
     */
    void writeThroughStore(Addr sim, std::uint32_t size, Cycles now,
                           AccessResult &result);
    /**
     * Store on a coherent path: a line this hierarchy holds in Shared
     * state must acquire ownership before the store can dirty it.
     */
    void upgradeShared(Addr sim, AccessResult &result);
    /**
     * The walk below a proven L1 miss: L2 lookup, prefetch issue, the
     * uncore snoop, the L3 fetch, the fills and their write-back chain.
     * @p result carries the latency accumulated so far.
     */
    void accessMiss(Addr host, Addr sim, AccessType type,
                    std::uint32_t size, PcId pc, Cycles now,
                    AccessResult &result);
    /** Lines a linear accessRangeAt(@p base, @p bytes, ...) walks. */
    std::uint64_t
    spanLines(Addr base, std::uint32_t bytes) const
    {
        const unsigned line_bits = log2u(config.l1.lineBytes);
        const Addr first =
            base & ~static_cast<Addr>(AddrMap::kGrainBytes - 1);
        const Addr last = base + (bytes ? bytes : 1) - 1;
        return (last >> line_bits) - (first >> line_bits) + 1;
    }
    /** Issue the prefetch candidates collected in pfTargets. */
    void issuePrefetches(Cycles now);
    /** Write a dirty L1 victim back into the L2. */
    void writebackToL2(Addr line_addr, Cycles now);
    /** Write a dirty L2 victim back into the L3. */
    void writebackToL3(Addr line_addr, Cycles now);
    /** Fetch a line into L3 if absent; returns latency beyond L2. */
    Cycles fetchThroughL3(Addr addr, Cycles now);
    /** Largest beyond-L2 latency an L3 hit can cost (level split). */
    Cycles l3HitCeiling() const;

    MemPathParams config;
    Cache l1Cache;
    Cache l2Cache;
    Cache *l3Cache;
    TraceSession *trace = nullptr;  //!< observability hook (not owned)
    FaultInjector *faults = nullptr;  //!< fault-injection hook (not owned)
    CaptureSession *capture = nullptr; //!< capture hook (not owned)
    Uncore *uncoreHook = nullptr;  //!< shared uncore (not owned)
    std::uint32_t pathId = 0;      //!< this path's core id at the uncore
    std::unique_ptr<Prefetcher> pf;
    const std::unique_ptr<AddrMap> addrMap;  //!< host -> simulated
    std::vector<Range> wtRanges;
    std::vector<Range> noAllocRanges;
    /**
     * Prefetch candidates of the current miss. A member, not a local,
     * so its capacity persists and the walk stays allocation-free
     * after warm-up.
     */
    std::vector<Addr> pfTargets;
    L1Mode l1Mode = L1Mode::Live;
    L1OutcomeReader l1Replay;  //!< the outcomes read in L1Mode::Replay
    bool drainAccounted = false;  //!< drainDirty already ran (idempotence)
};

} // namespace tartan::sim

#endif // TARTAN_SIM_MEMSYSTEM_HH
