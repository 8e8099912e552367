/**
 * @file
 * The benchmark's host-speed reference: a fixed, self-contained kernel
 * that does the same kind of work as the simulator's hot loop (tag
 * compares over set-associative LRU arrays of an L1/L2/L3-sized
 * hierarchy, a hash map on the miss path, an address stream mixing
 * strides and random jumps) and shares no code with it.
 *
 * On a shared host the speed at which this kind of code runs drifts by
 * up to 1.7x within minutes, as neighbours load the caches and memory
 * bus. Timing the reference kernel right before and after every
 * measured cell gives the host's speed at that moment; a cell's time
 * divided by it no longer carries the drift. The kernel must never
 * change: every comparison between commits rests on it doing the same
 * work.
 */

#ifndef TARTAN_PERFBENCH_REFERENCE_HH
#define TARTAN_PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tartan::perfbench {

/**
 * Host seconds the reference kernel takes on an idle host of the kind
 * the benchmark was written on (4-vCPU KVM guest, Intel Xeon at
 * 2.1 GHz): the unit that turns reference-normalised time back into
 * seconds. A fixed constant, never re-measured.
 */
constexpr double kReferenceNominalSeconds = 0.025;

/** The fixed reference workload; run() times one execution. */
class ReferenceKernel
{
  public:
    ReferenceKernel();

    /** Run the kernel once; returns its host seconds. */
    double run();

    /** Checksum of every run so far (keeps the work observable). */
    std::uint64_t checksum() const { return sum; }

  private:
    struct Level {
        unsigned sets;
        unsigned ways;
        std::vector<std::uint64_t> tags;
        std::vector<std::uint32_t> ages;
    };

    bool probe(Level &level, std::uint64_t line);

    std::vector<Level> levels;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::uint32_t clock = 0;
    std::uint64_t sum = 0;
};

} // namespace tartan::perfbench

#endif // TARTAN_PERFBENCH_REFERENCE_HH
