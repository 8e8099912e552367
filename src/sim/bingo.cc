/**
 * @file
 * Bingo-like spatial prefetcher implementation.
 */

#include "sim/bingo.hh"

#include <bit>

#include "sim/logging.hh"

namespace tartan::sim {

BingoPrefetcher::BingoPrefetcher(std::uint32_t line_bytes,
                                 std::uint32_t page_bytes,
                                 std::uint32_t history_entries)
    : lineBytes(line_bytes),
      pageBytes(page_bytes),
      historyCapacity(history_entries)
{
    TARTAN_ASSERT(page_bytes / line_bytes <= 64,
                  "footprint bitmap limited to 64 lines");
    TARTAN_ASSERT(historyCapacity >= 1, "history capacity must be >= 1");
    ringBuf.assign(historyCapacity, 0);
}

std::uint32_t
BingoPrefetcher::lineOffset(Addr addr) const
{
    return static_cast<std::uint32_t>((addr % pageBytes) / lineBytes);
}

std::uint64_t
BingoPrefetcher::triggerKey(PcId pc, std::uint32_t offset) const
{
    return (static_cast<std::uint64_t>(pc) << 6) | offset;
}

void
BingoPrefetcher::retire(std::uint64_t page)
{
    const ActiveRegion *region = active.find(page);
    if (!region)
        return;
    const std::uint64_t key = region->triggerKey;
    const std::uint64_t footprint = region->footprint;
    active.erase(page);
    if (std::uint64_t *learned = history.find(key)) {
        // Re-learning an existing trigger overwrites in place: no FIFO
        // slot is consumed and nothing is evicted.
        *learned = footprint;
        return;
    }
    if (history.size() >= historyCapacity && ringCount > 0) {
        history.erase(ringBuf[ringHead]);
        ringHead = (ringHead + 1) % ringBuf.size();
        --ringCount;
    }
    ringBuf[(ringHead + ringCount) % ringBuf.size()] = key;
    ++ringCount;
    history.getOrInsert(key) = footprint;
    TARTAN_ASSERT(ringCount == history.size() &&
                      ringCount <= historyCapacity,
                  "Bingo ring FIFO out of sync with the history table");
}

void
BingoPrefetcher::observe(const PrefetchObservation &obs,
                         std::vector<Addr> &out)
{
    const std::uint64_t page = pageOf(obs.addr);
    const std::uint32_t offset = lineOffset(obs.addr);

    if (ActiveRegion *region = active.find(page)) {
        region->footprint |= (1ull << offset);
        return;
    }

    // Trigger access for this page: replay the learned footprint.
    const std::uint64_t key = triggerKey(obs.pc, offset);
    ActiveRegion &region = active.getOrInsert(page);
    region.triggerKey = key;
    region.footprint = (1ull << offset);

    if (const std::uint64_t *learned = history.find(key)) {
        // Footprints only ever set offsets of lines within the page,
        // so walking the set bits in ascending order (the trigger offset
        // masked out) emits the targets in line order.
        const Addr page_base = page * pageBytes;
        std::uint64_t fp = *learned & ~(1ull << offset);
        while (fp) {
            const unsigned line =
                static_cast<unsigned>(std::countr_zero(fp));
            fp &= fp - 1;
            out.push_back(page_base + line * lineBytes);
        }
    }
}

void
BingoPrefetcher::onEviction(Addr line_addr)
{
    // A page whose lines start leaving the cache has finished its
    // residency; learn its footprint.
    retire(pageOf(line_addr));
}

std::uint64_t
BingoPrefetcher::storageBits() const
{
    // History entry: ~30-bit tag + 64-bit footprint (original Bingo uses
    // long events and PHT rows; this is the same order of magnitude).
    return static_cast<std::uint64_t>(historyCapacity) * (30 + 64);
}

} // namespace tartan::sim
