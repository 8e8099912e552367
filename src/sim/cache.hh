/**
 * @file
 * Set-associative cache model with power-of-two or FCP set indexing,
 * LRU replacement, FCP replacement-metadata manipulation,
 * prefetched-line tracking, unnecessary-data-movement (UDM)
 * accounting, and eviction listeners.
 *
 * Storage is struct-of-arrays: parallel flat arrays for tags, recency,
 * state flags, UDM bitmaps and prefetch-ready cycles, so each loop of
 * the per-access protocol (hit scan, victim scan, LRU aging) streams
 * through one dense row per set instead of striding across fat line
 * records. The set index is one inline branch: the power-of-two mask,
 * or the FCP permutation. The one lookup (lookup(), fronted by a
 * one-entry MRU memo; out of line in the release build) and the one
 * fill, which retires the residency check, victim selection, eviction,
 * LRU aging and FCP manipulation in one scan plus one write pass, both
 * scan the set as scalar selects over all ways (no way loop
 * vectorises) with one branch on the outcome, never a data-dependent
 * early exit or running compare: the ways of a set are few, and a
 * mispredicted branch costs more than scanning them all. (findWay, the
 * residency query of probe and the coherence hooks, keeps its early
 * exit; see cache.cc.)
 * tests/golden_cache_test.cc diffs both against a naive map-of-sets
 * reference model.
 */

#ifndef TARTAN_SIM_CACHE_HH
#define TARTAN_SIM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tartan::sim {

/**
 * MESI coherence state of one cache line, derived from the per-way
 * flag bits: Invalid = not resident, Modified = valid+dirty, Shared =
 * valid+clean+shared bit, Exclusive = valid+clean without it. The
 * uncore's coherence fabric (sim/uncore) reads and manipulates these
 * states across the private hierarchies; single-core machines never
 * set the shared bit, so their lines only ever move through I/E/M —
 * exactly the pre-coherence valid/dirty life cycle.
 */
enum class MesiState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/**
 * Tartan's fine-grained cache partitioning (FCP, paper §VII-B, Fig. 5.b):
 * one region size keys both of its halves.
 *
 * Indexing. The set index is taken from a permutation of the line
 * number: the high foldBits bits of the in-region line offset are
 * dropped from the index window and the region bits slide down into
 * their place. A region of 2^O lines therefore maps onto 2^(O-foldBits)
 * sets with 2^foldBits same-region lines per set. The low O-foldBits
 * offset bits stay in the index verbatim, so consecutive (prefetched)
 * lines still spread across sets and do not create hotspots. The cache
 * tags with the full line number, so the dropped bits are never lost
 * and the tag width is unchanged (paper footnote 4).
 *
 * Replacement. On a fill of line X, every resident line in the set that
 * shares X's region has its LRU recency passed through m(x) (clamped to
 * the cache's manipulation ceiling), accelerating its eviction and
 * preventing any single region from monopolising the set.
 */
struct FcpParams {
    /** Manipulation function family evaluated in the paper (Fig. 11). */
    enum class Func { XPlus1, TwoX, XSquared };

    std::uint32_t regionBytes = 1024;  //!< region granularity (bytes)
    std::uint32_t foldBits = 2;  //!< high offset bits dropped from the index
    Func func = Func::XSquared;  //!< which m(x) to apply

    /** Apply m(x) to a recency value. */
    std::uint32_t
    apply(std::uint32_t x) const
    {
        switch (func) {
          case Func::XPlus1:
            return x + 1;
          case Func::TwoX:
            return 2 * x;
          case Func::XSquared:
            return x * x;
        }
        return x;
    }

    bool operator==(const FcpParams &) const = default;
};

/** Static configuration of one cache. */
struct CacheParams {
    std::string name = "cache";  //!< stats/debug label
    std::uint32_t sizeBytes = 32 * 1024;  //!< total capacity
    std::uint32_t assoc = 8;  //!< ways per set
    std::uint32_t lineBytes = 64;  //!< cache line size
    Cycles latency = 4;  //!< hit latency charged by MemPath
    /** Track per-line touched bytes for UDM accounting (L1 only). */
    bool trackUdm = false;
    /** FCP indexing and replacement manipulation; none = plain LRU
     *  with power-of-two indexing. */
    std::optional<FcpParams> fcp;
};

/** Aggregate statistics of a cache. */
struct CacheStats {
    std::uint64_t hits = 0;            //!< demand hits
    std::uint64_t misses = 0;          //!< demand misses
    std::uint64_t evictions = 0;       //!< valid lines displaced
    std::uint64_t dirtyEvictions = 0;  //!< displaced lines that were dirty
    std::uint64_t prefetchFills = 0;   //!< fills triggered by a prefetcher
    std::uint64_t prefetchHits = 0;     //!< demand hits on prefetched lines
    std::uint64_t prefetchUnused = 0;   //!< prefetched lines evicted unused
    std::uint64_t udmFetchedBytes = 0;  //!< bytes brought in (UDM tracking)
    std::uint64_t udmUsedBytes = 0;     //!< bytes actually referenced

    /** Demand accesses (hits + misses). */
    std::uint64_t accesses() const { return hits + misses; }
};

/**
 * One level of the cache hierarchy.
 *
 * The cache stores full line numbers as tags, so the FCP index
 * permutation needs no tag bits of its own. Fill/eviction is driven
 * externally by the MemorySystem, which models the hierarchy walk.
 */
class Cache
{
  public:
    /** Result of a lookup. */
    struct LookupResult {
        bool hit = false;
        bool prefetched = false;  //!< line had been prefetched and unused
        Cycles latePenalty = 0;   //!< residual latency of a late prefetch
    };

    /** Describes the line displaced by a fill. */
    struct Eviction {
        bool valid = false;
        Addr lineAddr = 0;
        bool dirty = false;
    };

    /** Callback invoked on every eviction of a valid line. */
    using EvictionListener = std::function<void(Addr line_addr)>;

    explicit Cache(const CacheParams &params);

    /**
     * Demand access: lookup() that counts a miss. The caller handles
     * the miss path.
     */
    LookupResult
    access(Addr addr, AccessType type, std::uint32_t size, Cycles now = 0)
    {
        return lookup(addr, type, size, now, true);
    }

    /**
     * Look @p addr up. On a hit the line is promoted to MRU, marked
     * dirty by a store, and its touched bytes recorded (UDM); a hit on
     * a prefetched-unused line is counted as a prefetch hit and pays
     * the residual latency of a prefetch still in flight at @p now. A
     * memo hit skips the set scan and the promotion, because the
     * memoised line is by construction already at MRU.
     *
     * @param addr byte address
     * @param type load or store
     * @param size access footprint in bytes (UDM accounting)
     * @param now current core cycle (for prefetch-timeliness accounting)
     * @param count_miss bump the miss counter on a miss. Demand
     *        accesses count misses; write-backs and write-through
     *        updates pass false, because they are not demand accesses.
     */
    LookupResult
    lookup(Addr addr, AccessType type, std::uint32_t size, Cycles now,
           bool count_miss)
    {
        const std::uint64_t line_number = addr >> lineBits;
        // A memo tag match implies same set, same line and a valid way
        // under either indexing (the set is a pure function of the
        // line, and invalid ways carry kInvalidTag).
        if (memoIdx != kNoMemo && tags[memoIdx] == line_number)
            return hitAt(memoIdx, addr, type, size, now);
        const std::uint32_t assoc = config.assoc;
        const std::size_t base = setIndex(line_number) * assoc;
        const std::uint64_t *set_tags = tags.data() + base;
        // Tag match as a select over every way (at most one matches):
        // no data-dependent early exit, one branch on the outcome.
        std::uint32_t hit_way = kNoWay;
        for (std::uint32_t way = 0; way < assoc; ++way)
            hit_way = set_tags[way] == line_number ? way : hit_way;
        if (hit_way == kNoWay) {
            statsData.misses += count_miss ? 1 : 0;
            return LookupResult{};
        }
        const LookupResult res =
            hitAt(base + hit_way, addr, type, size, now);
        promote(base, hit_way);
        return res;
    }

    /** Check residency without perturbing any state. */
    bool probe(Addr addr) const;

    /**
     * Install a line (after fetching it from below). Returns the victim.
     * Refilling a resident line only promotes it (and marks it dirty
     * when @p dirty); nothing is evicted.
     *
     * @param prefetch the fill was triggered by a prefetcher
     * @param dirty install in modified state
     * @param ready_at cycle at which a prefetched line becomes usable
     */
    Eviction fill(Addr addr, bool prefetch = false, bool dirty = false,
                  Cycles ready_at = 0);

    /**
     * The line fill(@p addr) would displace, without changing any
     * state: Eviction{} when the line is resident or a way is free.
     * Used off the single-core path (the fleet's private-access proof);
     * tests/golden_cache_test.cc checks it against every fill.
     */
    Eviction victimOf(Addr addr) const;

    /** @name MESI coherence hooks (driven by sim/uncore). */
    ///@{

    /** Coherence state of the line holding @p addr (no state change). */
    MesiState lineState(Addr addr) const;

    /**
     * Snoop-invalidate: remove the line on a remote store (S/E/M → I).
     * Retires through the same eviction bookkeeping as a capacity
     * eviction (counters, UDM, eviction listener), so the cache-level
     * stats invariants keep holding; the fabric counts the invalidation
     * separately. Returns true when the line was resident; @p was_dirty
     * (when non-null) reports whether it held modified data the fabric
     * must forward.
     */
    bool snoopInvalidate(Addr addr, bool *was_dirty = nullptr);

    /**
     * Snoop-downgrade: demote the line on a remote load (M/E → S),
     * clearing the dirty bit — the fabric forwards modified data into
     * the shared L3 before the requester refetches it. Returns true
     * when the line was resident; @p was_dirty (when non-null) reports
     * whether modified data was surrendered.
     */
    bool snoopDowngrade(Addr addr, bool *was_dirty = nullptr);

    /** Mark a resident line Shared (requester side of a shared fill). */
    void markShared(Addr addr);

    /** Clear the Shared mark (local store upgrade S → E, then → M). */
    void clearShared(Addr addr);

    ///@}

    /** Number of resident dirty lines (end-of-run drain accounting). */
    std::uint64_t dirtyLines() const;

    /** Number of resident prefetched lines not yet demanded. */
    std::uint64_t prefetchedLines() const;

    /** Register an eviction listener (e.g. ANL region termination). */
    void setEvictionListener(EvictionListener listener);

    const CacheParams &params() const { return config; }
    const CacheStats &stats() const { return statsData; }
    CacheStats &stats() { return statsData; }
    std::uint32_t numSets() const { return setCount; }

    /** Set of the line with number @p line_number (address >> lineBits). */
    std::uint64_t
    setIndex(std::uint64_t line_number) const
    {
        if (!config.fcp)
            return line_number & (setCount - 1);
        // FCP permutation: the kept low offset bits, then the region.
        const std::uint64_t mixed =
            (line_number & fcpKeepMask) |
            ((line_number >> fcpRegionShift) << fcpKeepBits);
        return mixed & (setCount - 1);
    }

    /** Line-aligned address of @p addr. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config.lineBytes - 1);
    }

  private:
    /** Way-state bits of the flags array. */
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kPrefetched = 4;
    static constexpr std::uint8_t kShared = 8;

    /** Flat way index of @p addr's line, or kNoMemo when absent. */
    std::size_t findWay(Addr addr) const;

    /** Tag-array value for ways holding no valid line. */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t(0);

    /** memoIdx value meaning "no line memoised". */
    static constexpr std::size_t kNoMemo = ~std::size_t(0);

    /** Way number meaning "no way of the set matched". */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t(0);

    /** Victim-key rank of an invalid way: above every valid way's. */
    static constexpr std::uint32_t kInvalidRank = 1u << 31;

    /** Upper bound on FCP-manipulated recency values. */
    std::uint32_t manipCeiling() const { return 4 * maxRecency + 1; }

    /** Hit bookkeeping of lookup() on flat way @p idx (no promotion). */
    LookupResult
    hitAt(std::size_t idx, Addr addr, AccessType type, std::uint32_t size,
          Cycles now)
    {
        ++statsData.hits;
        LookupResult res;
        res.hit = true;
        if (flags[idx] & kPrefetched) {
            res.prefetched = true;
            ++statsData.prefetchHits;
            if (readyAt[idx] > now)
                res.latePenalty = readyAt[idx] - now;
            flags[idx] &= static_cast<std::uint8_t>(~kPrefetched);
        }
        if (type == AccessType::Store)
            flags[idx] |= kDirty;
        touch(idx, addr, size);
        return res;
    }

    /**
     * True LRU promotion: lines younger than @p way's age by one. An
     * invalid way's recency is dead state (every reader checks
     * validity before looking at it), so it is aged too and the loop
     * is a branchless compare-and-add. Bound and row are locals: a
     * recency store may alias config.assoc and force a reload per way.
     */
    void
    promote(std::size_t set_base, std::uint32_t way)
    {
        std::uint32_t *rec = recency.data() + set_base;
        const std::uint32_t assoc = config.assoc, old_rec = rec[way];
        for (std::uint32_t w = 0; w < assoc; ++w)
            rec[w] += rec[w] < old_rec ? 1u : 0u;
        rec[way] = 0;
        memoIdx = set_base + way;
    }

    void evictLine(std::size_t idx);

    /** UDM accounting: mark the 4-byte granules an access covers. */
    void
    touch(std::size_t idx, Addr addr, std::uint32_t size)
    {
        if (!config.trackUdm)
            return;
        const std::uint32_t off = static_cast<std::uint32_t>(
            addr & (config.lineBytes - 1));
        const std::uint32_t last_byte = off + (size ? size - 1 : 0);
        const std::uint32_t first = off / 4;
        const std::uint32_t last = last_byte >= config.lineBytes
                                       ? (config.lineBytes - 1) / 4
                                       : last_byte / 4;
        const std::uint32_t span = last - first + 1;
        const std::uint64_t mask =
            span >= 64 ? ~0ull : ((1ull << span) - 1);
        touched[idx] |= mask << first;
    }

    CacheParams config;
    std::uint32_t setCount;
    std::uint32_t lineBits;
    std::uint32_t maxRecency;
    /** Line number >> fcpRegionShift is the FCP region (FCP only). */
    std::uint32_t fcpRegionShift = 0;
    /** In-region offset bits FCP keeps in the index (FCP only). */
    std::uint32_t fcpKeepBits = 0;
    /** Mask of the kept offset bits, (1 << fcpKeepBits) - 1. */
    std::uint64_t fcpKeepMask = 0;
    /**
     * Way state as struct-of-arrays, flat: way w of set s lives at
     * index [s * assoc + w] of every row. The tag row doubles as the
     * line-number store (kInvalidTag when the way is empty), so the hit
     * scan and the eviction bookkeeping read the same contiguous array.
     */
    std::vector<std::uint64_t> tags;
    /** LRU age per way: 0 = MRU, grows towards eviction. */
    std::vector<std::uint32_t> recency;
    /** kValid / kDirty / kPrefetched bits per way. */
    std::vector<std::uint8_t> flags;
    /** 4-byte-granule touched bitmap per way (empty unless trackUdm). */
    std::vector<std::uint64_t> touched;
    /** Cycle at which a prefetched way's line arrives. */
    std::vector<Cycles> readyAt;
    /**
     * One-entry hit memo: the flat index of the way most recently made
     * MRU by access()/fill(), or kNoMemo. Every mutation that can
     * demote a line from MRU also retargets or clears the memo, so a
     * memo tag match proves the line is still at recency 0.
     */
    std::size_t memoIdx = kNoMemo;
    CacheStats statsData;
    EvictionListener evictionListener;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_CACHE_HH
