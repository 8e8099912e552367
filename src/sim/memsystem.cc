/**
 * @file
 * Memory-path implementation: hierarchy walk, write-backs, write-through
 * ranges, and prefetch issue with timeliness.
 */

#include "sim/memsystem.hh"

#include "sim/capture.hh"
#include "sim/logging.hh"
#include "sim/uncore.hh"

namespace tartan::sim {

MemPath::MemPath(const MemPathParams &params, Cache *shared_l3)
    : config(params), l1Cache(params.l1), l2Cache(params.l2),
      l3Cache(shared_l3)
{
    TARTAN_ASSERT(l3Cache, "MemPath requires a shared L3");
    TARTAN_ASSERT(params.l1.lineBytes == params.l2.lineBytes,
                  "L1/L2 line sizes must match");
    l2Cache.setEvictionListener([this](Addr line_addr) {
        if (pf)
            pf->onEviction(line_addr);
    });
}

void
MemPath::addWriteThroughRange(Addr base, std::size_t bytes)
{
    if (capture)
        capture->writeThroughRange(base, bytes);
    wtRanges.push_back(Range{base, base + bytes});
}

void
MemPath::enableDeterministicAddressing()
{
    if (!addrMap)
        addrMap = std::make_unique<AddrMap>();
}

void
MemPath::mapSegment(Addr base, std::size_t bytes)
{
    TARTAN_ASSERT(addrMap,
                  "mapSegment requires deterministic addressing");
    if (capture)
        capture->mapSegment(base, bytes);
    addrMap->addSegment(base, bytes);
}

void
MemPath::addNoAllocateRange(Addr base, std::size_t bytes)
{
    if (capture)
        capture->noAllocateRange(base, bytes);
    noAllocRanges.push_back(Range{base, base + bytes});
}

void
MemPath::drainDirty()
{
    // Latched rather than clearing dirty bits: the caches keep their
    // true resident state after the drain, and a second drain counts
    // nothing.
    if (drainAccounted)
        return;
    drainAccounted = true;
    stats.l3Writebacks += l1Cache.dirtyLines() + l2Cache.dirtyLines();
}

void
MemPath::setPrefetcher(std::unique_ptr<Prefetcher> prefetcher)
{
    pf = std::move(prefetcher);
}

void
MemPath::writeThroughStore(Addr sim, std::uint32_t size, Cycles now,
                           AccessResult &result)
{
    ++stats.wtStores;
    ++stats.dramWrites;
    // count_miss=false: updating a resident copy is not a demand
    // access, so an absent line changes no state at all.
    l1Cache.lookup(sim, AccessType::Load, size, now, false);
    // A WT update landing on a prefetched-unused L2 line consumes the
    // prefetch off the demand path.
    if (l2Cache.lookup(sim, AccessType::Load, size, now, false).prefetched)
        ++stats.pfHitsOther;
    result.latency = 1;
    result.level = MemLevel::Dram;
}

void
MemPath::upgradeShared(Addr sim, AccessResult &result)
{
    // The upgrade invalidates remote copies and clears the local
    // Shared marks, so the L1 access that follows performs the ordinary
    // silent E -> M transition. Until some line has been shared there
    // is no Shared mark to find.
    if (!uncoreHook->mayHoldShared())
        return;
    const Addr line = l1Cache.lineAddr(sim);
    if (l1Cache.lineState(line) == MesiState::Shared ||
        l2Cache.lineState(line) == MesiState::Shared) {
        const Cycles up = uncoreHook->storeUpgrade(pathId, line);
        result.latency += up;
        result.coherenceCycles += up;
    }
}

void
MemPath::accessMiss(Addr host, Addr sim, AccessType type,
                    std::uint32_t size, PcId pc, Cycles now,
                    AccessResult &result)
{
    result.latency += config.l2.latency;
    const auto l2_res = l2Cache.access(sim, type, size, now);

    if (pf && !(faults && faults->prefetchBlackout())) {
        // Prefetches issue before the demand fill: a candidate's L3
        // fetch and victim write-back are ordered ahead of the demand
        // line's.
        PrefetchObservation obs{sim, pc, !l2_res.hit};
        pfTargets.clear();
        pf->observe(obs, pfTargets);
        if (!pfTargets.empty())
            issuePrefetches(now);
    }

    const bool no_alloc = inRange(noAllocRanges, host);
    const bool store = type == AccessType::Store;

    if (l2_res.hit) {
        result.level = MemLevel::L2;
        if (l2_res.prefetched) {
            result.prefetchHit = true;
            result.latency += l2_res.latePenalty;
            result.lateCycles = l2_res.latePenalty;
            if (l2_res.latePenalty) {
                ++stats.pfHitsLate;
                stats.pfLateCycles += l2_res.latePenalty;
            } else {
                ++stats.pfHitsTimely;
            }
        }
        if (!no_alloc) {
            const auto ev = l1Cache.fill(sim, false, store);
            if (ev.valid && ev.dirty)
                writebackToL2(ev.lineAddr, now);
        }
        return;
    }

    bool fill_shared = false;
    if (uncoreHook) {
        // Both private levels missed: snoop the sibling hierarchies.
        // A remote Modified line is forwarded into the shared L3 first,
        // so the fetch below hits it there; remote clean copies are
        // invalidated (store) or downgraded to Shared (load).
        const auto act = uncoreHook->resolveMiss(
            pathId, l2Cache.lineAddr(sim), store, now);
        result.latency += act.cycles;
        result.coherenceCycles += act.cycles;
        fill_shared = act.shared;
    }

    const Cycles below = fetchThroughL3(sim, now);
    result.latency += below;
    result.level = below > l3HitCeiling() ? MemLevel::Dram : MemLevel::L3;
    if (no_alloc)
        return;

    // The victim chain: the L2 victim is written back to the L3 before
    // the L1 victim's write-back reaches the L2 (and, through the L2's
    // own victim, the L3 and DRAM banks).
    const auto l2_ev = l2Cache.fill(sim);
    if (l2_ev.valid && l2_ev.dirty)
        writebackToL3(l2_ev.lineAddr, now);
    const auto l1_ev = l1Cache.fill(sim, false, store);
    if (l1_ev.valid && l1_ev.dirty)
        writebackToL2(l1_ev.lineAddr, now);
    if (fill_shared) {
        l2Cache.markShared(sim);
        l1Cache.markShared(sim);
    }
}

void
MemPath::issuePrefetches(Cycles now)
{
    Cycles queue_delay = 0;
    for (Addr target : pfTargets) {
        const Addr line = l2Cache.lineAddr(target);
        ++pf->stats.issued;
        if (l2Cache.probe(line)) {
            ++pf->stats.dropped;
            ++stats.pfDropped;
            continue;
        }
        const Cycles fetch = fetchThroughL3(line, now);
        const Cycles ready = now + config.l2.latency + fetch + queue_delay;
        queue_delay += config.prefetchBurst;
        const auto ev = l2Cache.fill(line, true, false, ready);
        if (ev.valid && ev.dirty)
            writebackToL3(ev.lineAddr, now);
        ++stats.pfIssued;
    }
}

void
MemPath::writebackToL2(Addr line_addr, Cycles now)
{
    // count_miss=false: a write-back is not a demand access; only a hit
    // on a resident copy is counted.
    const auto res =
        l2Cache.lookup(line_addr, AccessType::Store, 0, now, false);
    if (res.hit) {
        // A write-back landing on a prefetched-unused line consumes the
        // prefetch without a demand load: account it separately so the
        // cache-side prefetchHits counter stays reconcilable.
        if (res.prefetched)
            ++stats.pfHitsOther;
        return;
    }
    const auto ev = l2Cache.fill(line_addr, false, true);
    if (ev.valid && ev.dirty)
        writebackToL3(ev.lineAddr, now);
}

void
MemPath::writebackToL3(Addr line_addr, Cycles now)
{
    ++stats.l3Writebacks;
    if (l3Cache->lookup(line_addr, AccessType::Store, 0, now, false).hit)
        return;
    const auto ev = l3Cache->fill(line_addr, false, true);
    if (ev.valid && ev.dirty) {
        ++stats.dramWrites;
        if (uncoreHook)
            uncoreHook->dramWrite(ev.lineAddr, now);
    }
}

Cycles
MemPath::fetchThroughL3(Addr addr, Cycles now)
{
    ++stats.l3Accesses;
    const bool hit = l3Cache->access(addr, AccessType::Load, 0, now).hit;
    // Coherent paths pay the crossbar traversal to the line's L3
    // slice; an L3 miss then resolves DRAM timing through the banked
    // memory controller instead of the flat dramLatency.
    const Cycles l3_lat =
        uncoreHook ? config.l3Latency + uncoreHook->xbarCost(pathId, addr)
                   : config.l3Latency;
    if (hit)
        return l3_lat;
    ++stats.dramReads;
    const auto ev = l3Cache->fill(addr);
    if (ev.valid && ev.dirty) {
        ++stats.dramWrites;
        if (uncoreHook)
            uncoreHook->dramWrite(ev.lineAddr, now);
    }
    return l3_lat + (uncoreHook ? uncoreHook->dramRead(addr, now)
                                : config.dramLatency);
}

Cycles
MemPath::l3HitCeiling() const
{
    return config.l3Latency +
           (uncoreHook ? uncoreHook->maxXbarCost() : 0);
}

void
MemPath::checkInvariants() const
{
    // Late-prefetch accounting, end to end: every prefetch the
    // prefetcher proposed is either dropped or filled into the L2, and
    // every filled line is eventually consumed by a demand access
    // (timely or late), consumed off the demand path, evicted unused,
    // or still resident. Cache::access clears line.prefetched on first
    // hit, so each fill is counted exactly once.
    TARTAN_ASSERT(!pf || (pf->stats.issued ==
                              stats.pfIssued + stats.pfDropped &&
                          pf->stats.dropped == stats.pfDropped),
                  "pf proposals == MemPath issued + dropped");
    const CacheStats &l2 = l2Cache.stats();
    TARTAN_ASSERT(stats.pfIssued == l2.prefetchFills,
                  "pf issues == L2 prefetch fills");
    TARTAN_ASSERT(l2.prefetchHits == stats.pfHitsTimely +
                                         stats.pfHitsLate +
                                         stats.pfHitsOther,
                  "L2 prefetch hits == timely + late + off-demand-path");
    TARTAN_ASSERT(l2.prefetchFills == l2.prefetchHits + l2.prefetchUnused +
                                          l2Cache.prefetchedLines(),
                  "prefetch fills == hits + unused + still-resident");
    TARTAN_ASSERT(stats.pfHitsLate > 0 || stats.pfLateCycles == 0,
                  "late cycles imply late hits");
}

AccessResult
MemPath::accessRange(Addr base, std::uint32_t bytes, PcId pc, Cycles now)
{
    const std::uint32_t line = config.l1.lineBytes;
    AccessResult worst;
    bool any = false;
    const auto take = [&](Addr host, Addr sim) {
        const AccessResult res =
            accessAt(host, sim, AccessType::Load, line, pc, now);
        if (!any || res.latency > worst.latency)
            worst = res;
        any = true;
    };

    if (!addrMap) {
        const Addr first = base & ~static_cast<Addr>(line - 1);
        const Addr last = (base + (bytes ? bytes - 1 : 0)) &
                          ~static_cast<Addr>(line - 1);
        for (Addr a = first; a <= last; a += line)
            take(a, a);
        return worst;
    }

    // Deterministic mode: walk the span at translation-grain
    // granularity and access each distinct simulated line once, so the
    // line count reflects the span's size rather than the host base's
    // offset within a line.
    const Addr first =
        base & ~static_cast<Addr>(AddrMap::kGrainBytes - 1);
    const Addr end = base + (bytes ? bytes : 1);

    // Hoisted segment lookup: a span that maps linearly through one
    // unambiguous arena segment has a constant (sim - host) delta that
    // is a multiple of 2 MB, so simulated line boundaries coincide with
    // host line boundaries and the grain walk collapses to one access
    // per host line — same access sequence, one segment lookup instead
    // of one translation per grain.
    Addr delta = 0;
    if (addrMap->linearSpan(first, end - first, &delta)) {
        const Addr line_mask = ~static_cast<Addr>(line - 1);
        take(first, (first & line_mask) + delta);
        for (Addr al = (first & line_mask) + line; al < end; al += line)
            take(al, al + delta);
        return worst;
    }

    Addr prev_line = ~Addr(0);
    for (Addr a = first; a < end; a += AddrMap::kGrainBytes) {
        const Addr sim_line =
            addrMap->translate(a) & ~static_cast<Addr>(line - 1);
        if (sim_line == prev_line)
            continue;
        prev_line = sim_line;
        take(a, sim_line);
    }
    return worst;
}

bool
MemPath::staysPrivate(Addr host, AccessType type) const
{
    // A hook may be shared between paths, so an access it observes is
    // never proven private.
    if (faults || trace)
        return false;
    const Addr sim = addrMap ? addrMap->translate(host) : host;
    if (type == AccessType::Store) {
        if (!wtRanges.empty() && inRange(wtRanges, host))
            return true;
        if (uncoreHook && uncoreHook->mayHoldShared())
            return false;
    }
    if (l1Cache.probe(sim))
        return true;
    // Below an L1 miss a prefetcher may fetch through the L3 on any L2
    // access, and an L2 miss always does.
    if (pf || !l2Cache.probe(sim))
        return false;
    if (inRange(noAllocRanges, host))
        return true;
    const Cache::Eviction ev = l1Cache.victimOf(sim);
    return !ev.dirty || l2Cache.probe(ev.lineAddr);
}

} // namespace tartan::sim
