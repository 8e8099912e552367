/**
 * @file
 * Set-associative cache model implementation.
 */

#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace tartan::sim {

Cache::Cache(const CacheParams &params) : config(params)
{
    TARTAN_ASSERT(config.sizeBytes % (config.assoc * config.lineBytes) == 0,
                  "cache geometry must divide evenly");
    setCount = config.sizeBytes / (config.assoc * config.lineBytes);
    TARTAN_ASSERT(std::has_single_bit(setCount),
                  "set count must be a power of two");
    // fill() packs the way number into the low byte of its victim key.
    TARTAN_ASSERT(config.assoc >= 1 && config.assoc <= 255,
                  "associativity must be 1..255");
    lineBits = log2u(config.lineBytes);
    maxRecency = config.assoc - 1;
    if (config.fcp) {
        TARTAN_ASSERT(config.fcp->regionBytes % config.lineBytes == 0,
                      "FCP region must be a multiple of the line size");
        fcpRegionShift = log2u(config.fcp->regionBytes / config.lineBytes);
        TARTAN_ASSERT(config.fcp->foldBits <= fcpRegionShift,
                      "FCP fold width exceeds the region offset field");
        fcpKeepBits = fcpRegionShift - config.fcp->foldBits;
        fcpKeepMask = (1ull << fcpKeepBits) - 1;
    }
    const std::size_t ways = std::size_t(setCount) * config.assoc;
    tags.assign(ways, kInvalidTag);
    recency.assign(ways, 0);
    flags.assign(ways, 0);
    if (config.trackUdm)
        touched.assign(ways, 0);
    readyAt.assign(ways, 0);
}

bool
Cache::probe(Addr addr) const
{
    return findWay(addr) != kNoMemo;
}

void
Cache::evictLine(std::size_t idx)
{
    const std::uint8_t f = flags[idx];
    ++statsData.evictions;
    statsData.dirtyEvictions += (f & kDirty) ? 1 : 0;
    statsData.prefetchUnused += (f & kPrefetched) ? 1 : 0;
    if (config.trackUdm) {
        statsData.udmFetchedBytes += config.lineBytes;
        statsData.udmUsedBytes +=
            4ull * static_cast<std::uint64_t>(std::popcount(touched[idx]));
        touched[idx] = 0;
    }
    if (evictionListener)
        evictionListener(tags[idx] << lineBits);
    flags[idx] = 0;
    tags[idx] = kInvalidTag;
    if (memoIdx == idx)
        memoIdx = kNoMemo;
}

Cache::Eviction
Cache::fill(Addr addr, bool prefetch, bool dirty, Cycles ready_at)
{
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;

    // One select-only scan over every way finds the resident way and
    // the victim. The victim is the way of maximal key, where a valid
    // way's key is ((recency + 1) << 8) | (255 - way) and an invalid
    // way's (kInvalidTag) key outranks every valid one: the first
    // invalid way if there is one, else the earliest way of strictly
    // maximal recency. assoc <= 255 keeps the way in the low byte.
    std::uint32_t hit_way = kNoWay;
    std::uint32_t best_key = 0;
    for (std::uint32_t way = 0; way < config.assoc; ++way) {
        const std::size_t idx = base + way;
        const std::uint64_t tag = tags[idx];
        hit_way = tag == line_number ? way : hit_way;
        const std::uint32_t rank =
            tag == kInvalidTag ? kInvalidRank : (recency[idx] + 1) << 8;
        const std::uint32_t key = rank | (255 - way);
        best_key = key > best_key ? key : best_key;
    }
    if (hit_way != kNoWay) {
        // Refilling a resident line is a no-op apart from flags.
        flags[base + hit_way] |= dirty ? kDirty : 0;
        promote(base, hit_way);
        return Eviction{};
    }
    const std::uint32_t victim = 255 - (best_key & 0xffu);

    // One write pass retires the eviction, the insertion aging and the
    // FCP manipulation together (they touch disjoint state per way).
    const std::size_t vidx = base + victim;
    Eviction ev;
    if (flags[vidx] & kValid) {
        ev.valid = true;
        ev.lineAddr = tags[vidx] << lineBits;
        ev.dirty = (flags[vidx] & kDirty) != 0;
        evictLine(vidx);
    }

    if (!config.fcp) {
        // Branchless insertion aging: invalid ways' recency is dead
        // state (no reader looks at it before checking validity), and
        // the victim way's aged value is overwritten by the install
        // below, so neither needs excluding and the saturating
        // increment is a select. Locals again, as in promote().
        std::uint32_t *rec = recency.data() + base;
        const std::uint32_t assoc = config.assoc, max_rec = maxRecency;
        for (std::uint32_t w = 0; w < assoc; ++w)
            rec[w] += rec[w] < max_rec ? 1u : 0u;
    } else {
        // FCP: age every resident line (saturating at the natural LRU
        // maximum), then pass every same-region line through m(x),
        // making regions that already occupy much of the set evict
        // sooner. The manipulated recency may exceed the natural LRU
        // maximum (up to manipCeiling) so that an over-occupying
        // region's lines outrank naturally old lines of other regions
        // at eviction time. Selects again: invalid ways (the evicted
        // victim included) hold dead recency, and kInvalidTag shifted
        // down lies beyond every real region, so no way is skipped.
        const std::uint32_t ceiling = manipCeiling();
        const std::uint64_t region = line_number >> fcpRegionShift;
        for (std::uint32_t w = 0; w < config.assoc; ++w) {
            const std::size_t idx = base + w;
            std::uint32_t rec = recency[idx];
            rec += rec < maxRecency ? 1u : 0u;
            const std::uint32_t manipulated =
                std::min(config.fcp->apply(rec), ceiling);
            recency[idx] = (tags[idx] >> fcpRegionShift) == region
                               ? manipulated
                               : rec;
        }
    }

    tags[vidx] = line_number;
    flags[vidx] = static_cast<std::uint8_t>(
        kValid | (dirty ? kDirty : 0) | (prefetch ? kPrefetched : 0));
    // touched is only ever read under trackUdm, and readyAt only under
    // the kPrefetched flag (which every prefetch fill rewrites before
    // setting), so neither needs clearing otherwise.
    if (config.trackUdm)
        touched[vidx] = 0;
    recency[vidx] = 0;
    if (prefetch) {
        readyAt[vidx] = ready_at;
        ++statsData.prefetchFills;
    }
    memoIdx = vidx;
    return ev;
}

std::size_t
Cache::findWay(Addr addr) const
{
    // An early exit, unlike lookup(). Its hot caller is the fleet's
    // private-access proof (MemPath::staysPrivate), which probes a
    // usually resident L1 line per record; a select in its place
    // measured no different on fleet4 (min of 16 timed replays each,
    // 4-core Xeon), so it keeps the early exit.
    const std::uint64_t line_number = addr >> lineBits;
    const std::uint32_t assoc = config.assoc;
    const std::size_t base = setIndex(line_number) * assoc;
    const std::uint64_t *set_tags = tags.data() + base;
    for (std::uint32_t way = 0; way < assoc; ++way)
        if (set_tags[way] == line_number)
            return base + way;
    return kNoMemo;
}

MesiState
Cache::lineState(Addr addr) const
{
    const std::size_t idx = findWay(addr);
    if (idx == kNoMemo || !(flags[idx] & kValid))
        return MesiState::Invalid;
    if (flags[idx] & kDirty)
        return MesiState::Modified;
    return (flags[idx] & kShared) ? MesiState::Shared
                                  : MesiState::Exclusive;
}

bool
Cache::snoopInvalidate(Addr addr, bool *was_dirty)
{
    const std::size_t idx = findWay(addr);
    if (idx == kNoMemo)
        return false;
    if (was_dirty)
        *was_dirty = (flags[idx] & kDirty) != 0;
    evictLine(idx);
    return true;
}

bool
Cache::snoopDowngrade(Addr addr, bool *was_dirty)
{
    const std::size_t idx = findWay(addr);
    if (idx == kNoMemo)
        return false;
    if (was_dirty)
        *was_dirty = (flags[idx] & kDirty) != 0;
    flags[idx] = static_cast<std::uint8_t>(
        (flags[idx] & ~kDirty) | kShared);
    return true;
}

void
Cache::markShared(Addr addr)
{
    const std::size_t idx = findWay(addr);
    if (idx != kNoMemo)
        flags[idx] |= kShared;
}

void
Cache::clearShared(Addr addr)
{
    const std::size_t idx = findWay(addr);
    if (idx != kNoMemo)
        flags[idx] &= static_cast<std::uint8_t>(~kShared);
}

std::uint64_t
Cache::dirtyLines() const
{
    std::uint64_t count = 0;
    for (const std::uint8_t f : flags)
        if ((f & (kValid | kDirty)) == (kValid | kDirty))
            ++count;
    return count;
}

std::uint64_t
Cache::prefetchedLines() const
{
    std::uint64_t count = 0;
    for (const std::uint8_t f : flags)
        if ((f & (kValid | kPrefetched)) == (kValid | kPrefetched))
            ++count;
    return count;
}

void
Cache::setEvictionListener(EvictionListener listener)
{
    evictionListener = std::move(listener);
}

Cache::Eviction
Cache::victimOf(Addr addr) const
{
    // fill()'s victim choice, read-only and kept out of fill() itself,
    // which stays as tuned for the single-core walk: the resident way
    // means no eviction, else the way of maximal key.
    const std::uint64_t line_number = addr >> lineBits;
    const std::uint32_t assoc = config.assoc;
    const std::size_t base = setIndex(line_number) * assoc;
    const std::uint64_t *set_tags = tags.data() + base;
    const std::uint32_t *set_rec = recency.data() + base;
    std::uint32_t best_key = 0;
    for (std::uint32_t way = 0; way < assoc; ++way) {
        const std::uint64_t tag = set_tags[way];
        if (tag == line_number)
            return Eviction{};
        const std::uint32_t rank = tag == kInvalidTag
                                       ? kInvalidRank
                                       : (set_rec[way] + 1) << 8;
        best_key = std::max(best_key, rank | (255 - way));
    }
    const std::size_t vidx = base + (255 - (best_key & 0xffu));
    Eviction ev;
    if (flags[vidx] & kValid) {
        ev.valid = true;
        ev.lineAddr = tags[vidx] << lineBits;
        ev.dirty = (flags[vidx] & kDirty) != 0;
    }
    return ev;
}

} // namespace tartan::sim
