/**
 * @file
 * Hardware prefetcher interface and the Next-Line baseline.
 *
 * Prefetchers observe demand accesses at the L2 and return a list of
 * prefetch candidates. Timeliness is modelled: each prefetched line
 * records when it becomes ready, and a demand access arriving earlier
 * pays the residual latency ("late" prefetch). The paper's observation
 * that plain next-line prefetching is untimely (one line per invocation,
 * fetched only when the miss it should have hidden is already underway)
 * falls out of this model.
 */

#ifndef TARTAN_SIM_PREFETCHER_HH
#define TARTAN_SIM_PREFETCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tartan::sim {

/** A demand access visible to the prefetcher. */
struct PrefetchObservation {
    Addr addr = 0;
    PcId pc = 0;
    bool miss = false;
};

/** Prefetcher statistics (issue-side; hit-side lives in the cache). */
struct PrefetcherStats {
    std::uint64_t issued = 0;
    std::uint64_t dropped = 0;  //!< target already resident
};

/** Base class for L2 prefetchers. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe a demand access and append prefetch byte addresses to
     * @p out (cleared by the caller). Order matters: earlier entries are
     * fetched first and become ready sooner.
     */
    virtual void observe(const PrefetchObservation &obs,
                         std::vector<Addr> &out) = 0;

    /** A valid line was evicted from the cache being prefetched into. */
    virtual void onEviction(Addr line_addr) { (void)line_addr; }

    /** Metadata storage footprint in bits (for overhead tables). */
    virtual std::uint64_t storageBits() const = 0;

    virtual std::string name() const = 0;

    PrefetcherStats stats;
};

/** Classic degree-1 next-line prefetcher. */
class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(std::uint32_t line_bytes)
        : lineBytes(line_bytes)
    {
    }

    void
    observe(const PrefetchObservation &obs, std::vector<Addr> &out) override
    {
        if (obs.miss)
            out.push_back(obs.addr + lineBytes);
    }

    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "NextLine"; }

  private:
    std::uint32_t lineBytes;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_PREFETCHER_HH
