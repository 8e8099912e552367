/**
 * @file
 * Bingo-like spatial prefetcher baseline (Bakhshalipour et al., HPCA'19).
 *
 * This is a reduced model of Bingo used as the state-of-the-art baseline
 * in the paper's Fig. 10: it records the footprint (bitmap of accessed
 * lines) of each spatial region during its residency, stores it in a
 * large history table keyed by the PC+offset of the trigger access, and
 * replays the footprint when the same trigger recurs. Its history tables
 * are deliberately sized like the original (>100 KB per core) so that the
 * area comparison against ANL is meaningful.
 *
 * Host-side storage is flat open-addressed tables plus a fixed ring
 * buffer holding the history's insertion order, so the per-miss
 * observe/retire path probes one contiguous array. tests/prefetch_test.cc
 * diffs the prediction stream against a std::map reference model.
 */

#ifndef TARTAN_SIM_BINGO_HH
#define TARTAN_SIM_BINGO_HH

#include <cstdint>
#include <vector>

#include "sim/flat_table.hh"
#include "sim/prefetcher.hh"
#include "sim/types.hh"

namespace tartan::sim {

/** Footprint-replay spatial prefetcher. */
class BingoPrefetcher : public Prefetcher
{
  public:
    /**
     * @param line_bytes cacheline size
     * @param page_bytes spatial region size (2 KB in the original)
     * @param history_entries capacity of the footprint history table
     */
    BingoPrefetcher(std::uint32_t line_bytes,
                    std::uint32_t page_bytes = 2048,
                    std::uint32_t history_entries = 16 * 1024);

    void observe(const PrefetchObservation &obs,
                 std::vector<Addr> &out) override;
    void onEviction(Addr line_addr) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "Bingo"; }

    /** Learned footprints currently held (test introspection). */
    std::size_t historySize() const { return history.size(); }
    /** Live FIFO entries — always equals historySize(). */
    std::size_t fifoLive() const { return ringCount; }
    /**
     * Host slots backing the FIFO (test introspection): the ring is
     * sized to the history capacity once, so this never grows with
     * total insertions.
     */
    std::size_t fifoBackingSlots() const { return ringBuf.size(); }

  private:
    struct ActiveRegion {
        std::uint64_t triggerKey = 0;
        std::uint64_t footprint = 0;
    };

    std::uint64_t pageOf(Addr addr) const { return addr / pageBytes; }
    std::uint32_t lineOffset(Addr addr) const;
    std::uint64_t triggerKey(PcId pc, std::uint32_t offset) const;
    void retire(std::uint64_t page);

    std::uint32_t lineBytes;
    std::uint32_t pageBytes;
    std::uint32_t historyCapacity;

    /** Regions currently being observed: page -> footprint. */
    FlatTable<ActiveRegion> active;
    /** Trigger (PC+offset) -> learned footprint bitmap. */
    FlatTable<std::uint64_t> history;
    /** Ring buffer of history insertion order (capacity eviction). */
    std::vector<std::uint64_t> ringBuf;
    std::size_t ringHead = 0;   //!< oldest live entry
    std::size_t ringCount = 0;  //!< live entries
};

} // namespace tartan::sim

#endif // TARTAN_SIM_BINGO_HH
