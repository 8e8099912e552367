/**
 * @file
 * Adaptive Next-Line (ANL) prefetcher (paper §VI-D).
 *
 * A 16-entry table tagged by PC (12 low bits) + Region (38 bits of the
 * 1 KB-region number) with two counters per entry: the current degree
 * CD, learning how many lines of the region this load site touches
 * during one residency, and the last degree LD, holding the previous
 * residency's count. On an L2 miss that hits the table, LD next lines
 * are prefetched at once (timely, unlike plain next-line), CD advances
 * and LD is consumed. When a region terminates (one of its lines is
 * evicted), every entry tracking it copies CD into LD and resets CD.
 * Victim selection evicts the entry with the smallest max(CD, LD):
 * dense regions, responsible for most prefetches, are retained.
 *
 * Total metadata: 16 x (12 + 38 + 10) bits = 120 B per core.
 */

#ifndef TARTAN_CORE_ANL_HH
#define TARTAN_CORE_ANL_HH

#include <array>
#include <cstdint>

#include "sim/prefetcher.hh"

namespace tartan::core {

/** ANL configuration. */
struct AnlConfig {
    std::uint32_t entries = 16;
    std::uint32_t regionBytes = 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t maxDegree = 31;  //!< 5-bit CD/LD counters
};

/** The ANL prefetcher. */
class AnlPrefetcher : public tartan::sim::Prefetcher
{
  public:
    explicit AnlPrefetcher(const AnlConfig &config);

    void observe(const tartan::sim::PrefetchObservation &obs,
                 std::vector<tartan::sim::Addr> &out) override;
    void onEviction(tartan::sim::Addr line_addr) override;
    std::uint64_t storageBits() const override;
    std::string name() const override { return "ANL"; }

    /** Table introspection for tests. */
    struct EntryView {
        bool valid;
        std::uint32_t cd;
        std::uint32_t ld;
        std::uint64_t region;
        std::uint32_t pc;
    };
    EntryView entry(std::uint32_t idx) const;
    std::uint32_t capacity() const { return cfg.entries; }

  private:
    struct Entry {
        bool valid = false;
        std::uint32_t pcTag = 0;
        std::uint64_t region = 0;
        std::uint32_t cd = 0;
        std::uint32_t ld = 0;
    };

    std::uint64_t regionOf(tartan::sim::Addr addr) const
    {
        return addr / cfg.regionBytes;
    }

    std::int32_t find(std::uint32_t pc_tag, std::uint64_t region) const;
    std::uint32_t victim() const;

    AnlConfig cfg;
    std::vector<Entry> table;
};

} // namespace tartan::core

#endif // TARTAN_CORE_ANL_HH
