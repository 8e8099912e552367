/**
 * @file
 * AddrMap implementation: segment registration and the TLB-miss
 * translation path (segment scan + first-touch fallback table).
 */

#include "sim/addrmap.hh"

#include "sim/logging.hh"

namespace tartan::sim {

void
AddrMap::setSpaceBias(Addr space_bias)
{
    TARTAN_ASSERT(segments.empty() && grainCount() == 0,
                  "setSpaceBias must precede registrations and "
                  "translations");
    bias = space_bias;
    nextSegmentBase = kSegmentSpace + bias;
    nextGrain = (kFallbackSpace + bias) >> kGrainBits;
}

void
AddrMap::addSegment(Addr host_base, std::size_t bytes)
{
    if (!bytes)
        return;
    // Preserve the host base's offset within a 2 MB tile so an arena
    // aligned to 2 MB keeps the same page/line decomposition in the
    // simulated space.
    const Addr offset = host_base & (kSegmentAlign - 1);
    const Addr sim = nextSegmentBase + offset;
    for (const Segment &s : segments)
        if (host_base < s.end && host_base + bytes > s.begin)
            overlapping = true;
    segments.push_back(Segment{host_base, host_base + bytes, sim});
    const Addr span = offset + bytes;
    nextSegmentBase +=
        (span + 2 * kSegmentAlign - 1) & ~(kSegmentAlign - 1);
    TARTAN_ASSERT(nextSegmentBase < kFallbackSpace + bias,
                  "AddrMap segment space exhausted");
    // Grain translations cached before the segment existed would now
    // shadow it through the TLB fast path.
    for (Entry &e : tlb)
        e.hostGrain = ~Addr(0);
}

SpanImage
AddrMap::translateSpan(Addr base, std::uint32_t bytes,
                       std::vector<Addr> &grains)
{
    const Addr first = base & ~static_cast<Addr>(kGrainBytes - 1);
    const Addr end = base + (bytes ? bytes : 1);
    Addr delta = 0;
    if (linearSpan(first, end - first, &delta))
        return {base + delta, {}};
    grains.clear();
    for (Addr a = first; a < end; a += kGrainBytes)
        grains.push_back(translate(a));
    return {0, grains};
}

Addr
AddrMap::translateSlow(Addr host)
{
    const Addr grain = host >> kGrainBits;

    // Resolve the address, then decide whether the whole 16-byte grain
    // translates uniformly — only then may the TLB cache
    // it, because translate() answers grain-granular probes. A grain is
    // non-uniform only when a segment boundary falls strictly inside it
    // (possible for segments whose size is not a multiple of 16).
    const Addr g_begin = grain << kGrainBits;
    const Addr g_end = g_begin + kGrainBytes;
    const Segment *match = nullptr;
    bool uniform = !overlapping;
    for (const Segment &s : segments) {
        if (!match && host >= s.begin && host < s.end)
            match = &s;
        if ((s.begin > g_begin && s.begin < g_end) ||
            (s.end > g_begin && s.end < g_end)) {
            uniform = false;
        }
    }

    Addr sim_addr;
    if (match) {
        // Segment deltas are multiples of 2 MB, so segment-mapped
        // grains are linear at grain granularity too.
        sim_addr = match->simBase + (host - match->begin);
    } else {
        sim_addr = (lookupGrain(grain) << kGrainBits) |
                   (host & (kGrainBytes - 1));
    }

    if (uniform) {
        Entry &e = tlb[grain & (kTlbEntries - 1)];
        e.hostGrain = grain;
        e.simGrain = sim_addr >> kGrainBits;
    }
    return sim_addr;
}

Addr
AddrMap::lookupGrain(Addr host_grain)
{
    // Real slot numbers start at 1<<40, so a default-constructed 0
    // means "just inserted".
    Addr &sim = grains.getOrInsert(host_grain);
    if (sim == 0)
        sim = nextGrain++;
    return sim;
}

} // namespace tartan::sim
