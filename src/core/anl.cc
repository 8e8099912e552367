/**
 * @file
 * ANL prefetcher implementation.
 */

#include "core/anl.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tartan::core {

using tartan::sim::Addr;
using tartan::sim::PrefetchObservation;

AnlPrefetcher::AnlPrefetcher(const AnlConfig &config)
    : cfg(config), table(config.entries)
{
    TARTAN_ASSERT(cfg.regionBytes % cfg.lineBytes == 0,
                  "region must be a multiple of the line size");
    // victim() packs the entry index into the low byte of its key.
    TARTAN_ASSERT(cfg.entries >= 1 && cfg.entries <= 256,
                  "ANL table must have 1..256 entries");
}

std::int32_t
AnlPrefetcher::find(std::uint32_t pc_tag, std::uint64_t region) const
{
    // Select over every entry, last to first, so the first match
    // survives; '&' (not '&&') keeps the match test branch-free.
    std::int32_t found = -1;
    for (std::uint32_t i = cfg.entries; i-- > 0;) {
        const Entry &e = table[i];
        const bool match =
            e.valid & (e.pcTag == pc_tag) & (e.region == region);
        found = match ? static_cast<std::int32_t>(i) : found;
    }
    return found;
}

std::uint32_t
AnlPrefetcher::victim() const
{
    // The entry of minimal key: an invalid entry's key is its index
    // alone, a valid one's is ((max(CD, LD) + 1) << 8) | index. So the
    // first invalid entry wins, else the lowest score, earliest first.
    // Keeping high-degree entries retains the dense regions, which
    // produce most of the useful prefetches.
    std::uint64_t best = ~std::uint64_t(0);
    for (std::uint32_t i = 0; i < cfg.entries; ++i) {
        const Entry &e = table[i];
        const std::uint64_t score = std::max(e.cd, e.ld);
        const std::uint64_t key =
            (e.valid ? (score + 1) << 8 : 0) | i;
        best = std::min(best, key);
    }
    return static_cast<std::uint32_t>(best & 0xffu);
}

void
AnlPrefetcher::observe(const PrefetchObservation &obs,
                       std::vector<Addr> &out)
{
    const std::uint32_t pc_tag = obs.pc & 0xfffu;
    const std::uint64_t region = regionOf(obs.addr);

    std::int32_t idx = find(pc_tag, region);
    if (idx < 0) {
        // New region for this load site: inherit the site's learned
        // degree from its most recent entry. Without inheritance a
        // 16-entry table has no reach on megabyte-scale working sets
        // (thousands of regions pass between two visits to the same
        // one); with it, the degree adapts per PC and refines per
        // region exactly as §VI-D intends.
        std::uint32_t inherited = 0;
        for (const Entry &e : table) {
            const bool same_site = e.valid & (e.pcTag == pc_tag);
            inherited = std::max(
                inherited, same_site ? std::max(e.ld, e.cd) : 0u);
        }
        // A site whose history shows no streaming (degree < 2) stays
        // quiet: degree-1 inheritance would waste one line per region
        // on sparse strided streams.
        if (inherited < 2)
            inherited = 0;
        inherited = std::min(inherited, 16u);
        const std::uint32_t v = victim();
        table[v] = Entry{true, pc_tag, region, 1, inherited};
        if (obs.miss && inherited > 0) {
            const Addr region_end = (region + 1) * cfg.regionBytes;
            Addr next = (obs.addr / cfg.lineBytes + 1) * cfg.lineBytes;
            for (std::uint32_t i = 0;
                 i < inherited && next < region_end;
                 ++i, next += cfg.lineBytes)
                out.push_back(next);
            table[v].ld = 0;
        }
        return;
    }

    Entry &e = table[static_cast<std::size_t>(idx)];
    if (e.cd < cfg.maxDegree)
        ++e.cd;
    if (obs.miss && e.ld > 0) {
        // Prefetch LD next lines, clamped to the region boundary so a
        // learned degree never spills into the neighbouring region.
        const Addr region_end =
            (region + 1) * cfg.regionBytes;
        Addr next = (obs.addr / cfg.lineBytes + 1) * cfg.lineBytes;
        for (std::uint32_t i = 0; i < e.ld && next < region_end;
             ++i, next += cfg.lineBytes)
            out.push_back(next);
        e.ld = 0;
    }
}

void
AnlPrefetcher::onEviction(Addr line_addr)
{
    const std::uint64_t region = regionOf(line_addr);
    for (Entry &e : table) {
        // Each residency terminates once: later evictions of the same
        // region (CD already drained) must not wipe LD.
        const bool ends =
            e.valid & (e.region == region) & (e.cd > 0);
        e.ld = ends ? e.cd : e.ld;
        e.cd = ends ? 0 : e.cd;
    }
}

std::uint64_t
AnlPrefetcher::storageBits() const
{
    return static_cast<std::uint64_t>(cfg.entries) * (12 + 38 + 10);
}

AnlPrefetcher::EntryView
AnlPrefetcher::entry(std::uint32_t idx) const
{
    const Entry &e = table[idx];
    return EntryView{e.valid, e.cd, e.ld, e.region, e.pcTag};
}

} // namespace tartan::core
