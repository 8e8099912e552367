/**
 * @file
 * Deterministic simulated-address translation.
 *
 * The simulator historically used host pointers as simulated addresses.
 * That is fine for Arena-backed structures (the arena base is 2 MB
 * aligned, so in-arena layout is run-invariant), but every instrumented
 * structure on the raw heap or stack inherits the host allocator's
 * placement — which varies with heap history, ASLR and the calling
 * thread's malloc arena. Cache-set mapping then varies run to run, and
 * a parallel bench sweep stops being bit-identical to a serial one.
 *
 * AddrMap closes that hole by translating every demand address into a
 * deterministic simulated address space before it reaches the caches:
 *
 *  - registered *segments* (arenas) map linearly onto 2 MB-aligned
 *    simulated bases assigned in registration order, preserving the
 *    arena's internal layout exactly;
 *  - everything else maps through a first-touch table at 16-byte
 *    *grain* granularity. Sixteen bytes is the guaranteed malloc
 *    alignment and the x86-64 stack alignment unit, so the grain
 *    decomposition of any object is run-invariant even though its host
 *    base address is not. Grains receive consecutive simulated slots in
 *    first-touch order, so sequentially initialised buffers keep their
 *    spatial locality.
 *
 * Translation is a pure function of the access sequence: two runs that
 * issue the same accesses in the same order see identical simulated
 * addresses, no matter where the host allocator placed the data.
 *
 * Hot path: because a segment's simulated base preserves the host
 * base's offset within a 2 MB tile, *every* translation — segment or
 * fallback — is linear at grain granularity (sim ≡ host mod 16), so
 * one direct-mapped TLB caches both kinds. translate() is a single
 * inline TLB probe; the segment scan and the first-touch table are only
 * reached on a TLB miss (translateSlow).
 */

#ifndef TARTAN_SIM_ADDRMAP_HH
#define TARTAN_SIM_ADDRMAP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/flat_table.hh"
#include "sim/types.hh"

namespace tartan::sim {

/** First-touch deterministic address translator (one per MemPath). */
class AddrMap
{
  public:
    /** Fallback-map granularity: the guaranteed host alignment unit. */
    static constexpr std::uint32_t kGrainBytes = 16;

    /**
     * Register [host_base, host_base+bytes) as a linearly-mapped
     * segment. Call in deterministic (program) order before the range
     * is accessed; later registrations win over the fallback map but
     * not over earlier overlapping segments.
     */
    void addSegment(Addr host_base, std::size_t bytes);

    /** Translate one host address into the simulated address space. */
    Addr
    translate(Addr host)
    {
        const Addr grain = host >> kGrainBits;
        const Entry &e = tlb[grain & (kTlbEntries - 1)];
        if (e.hostGrain == grain)
            return (e.simGrain << kGrainBits) | (host & (kGrainBytes - 1));
        return translateSlow(host);
    }

    /**
     * If every address of [base, base+bytes) maps linearly through one
     * unambiguous segment, store the constant (sim - host) delta in
     * @p delta and return true. Lets a caller translate a whole span
     * with one lookup (MemPath::accessRange). Returns false when the
     * span touches the fallback map, straddles a segment boundary, or
     * overlapping segments make per-address precedence necessary.
     */
    bool
    linearSpan(Addr base, std::size_t bytes, Addr *delta) const
    {
        if (overlapping)
            return false;
        // MRU memo: ranged accesses stream through one arena, so the
        // segment that matched last almost always matches next. With no
        // overlap a segment containing `base` is the unique match, so
        // probing the memoised one first cannot change the answer.
        if (spanMemo < segments.size()) {
            const Segment &s = segments[spanMemo];
            if (base >= s.begin && base < s.end) {
                if (base + bytes <= s.end) {
                    *delta = s.simBase - s.begin;
                    return true;
                }
                return false;
            }
        }
        for (std::size_t i = 0; i < segments.size(); ++i) {
            const Segment &s = segments[i];
            if (base >= s.begin && base < s.end) {
                spanMemo = i;
                if (base + bytes <= s.end) {
                    *delta = s.simBase - s.begin;
                    return true;
                }
                return false;
            }
        }
        return false;
    }

    /**
     * Offset this map's entire simulated address space by @p bias
     * (segments land at bias + 1<<40, fallback grains at bias + 1<<44).
     * A multi-core Machine gives core i the bias i << 48, so the
     * robots' address spaces stay disjoint in the shared L3 while
     * set-index bits are untouched — honest capacity and bandwidth
     * contention without fake sharing. Must be called before any
     * segment registration or translation (asserted); the default bias
     * of 0 is the historical single-core space.
     */
    void setSpaceBias(Addr bias);

    /** Fallback grains mapped so far (16-byte units). */
    std::size_t grainCount() const { return grains.size(); }

  private:
    static constexpr unsigned kGrainBits = 4;
    static constexpr std::size_t kTlbEntries = 8192;
    /** Segments live at 1<<40, the fallback heap at 1<<44. */
    static constexpr Addr kSegmentSpace = Addr(1) << 40;
    static constexpr Addr kFallbackSpace = Addr(1) << 44;
    static constexpr Addr kSegmentAlign = Addr(1) << 21;

    struct Segment {
        Addr begin;
        Addr end;
        Addr simBase;
    };

    struct Entry {
        Addr hostGrain = ~Addr(0);
        Addr simGrain = 0;
    };

    /** TLB-miss path: segment scan, then the first-touch table. */
    Addr translateSlow(Addr host);
    Addr lookupGrain(Addr host_grain);

    std::vector<Segment> segments;
    /** Index of the segment linearSpan matched last (MRU memo). */
    mutable std::size_t spanMemo = 0;
    /** Whole-space offset (setSpaceBias); 0 = historical layout. */
    Addr spaceBias = 0;
    Addr nextSegmentBase = kSegmentSpace;
    /**
     * First-touch table, host grain -> sim grain: flat open-addressed,
     * so the TLB-miss grain lookup is one probe run in a contiguous
     * array. Sim grain numbers start at 1<<40, so a value of 0
     * unambiguously marks a slot getOrInsert just created.
     */
    FlatTable<Addr> grains;
    Addr nextGrain = kFallbackSpace >> kGrainBits;
    std::array<Entry, kTlbEntries> tlb;
    bool overlapping = false;  //!< any segment overlaps an earlier one
};

} // namespace tartan::sim

#endif // TARTAN_SIM_ADDRMAP_HH
