/**
 * @file
 * Top-down CPI-stack cycle accounting: the fixed category taxonomy
 * every simulated core cycle is attributed to, and the deterministic
 * integer split that distributes an MLP-compressed memory stall across
 * the hierarchy levels that produced it.
 *
 * The accounting is exhaustive and exclusive by construction: Core
 * routes every cycle it charges through exactly one category, so the
 * per-kernel category sums equal KernelCounters::cycles and the
 * machine-wide sums equal Core::cycles() (both enforced as stats
 * invariants and TARTAN_DCHECKs). The taxonomy is versioned
 * (kCpiTaxonomyVersion) and echoed in every BENCH manifest so payloads
 * from different builds can be compared — or rejected — knowingly.
 *
 * Three categories are *reserved* (structurally zero in the current
 * model, kept so the schema is stable when the model grows):
 *  - tlb: AddrMap translation charges no simulated cycles (it is a
 *    host-determinism device, not a timing model);
 *  - writeback: victim write-backs retire through buffers off the
 *    critical path and never stall the core;
 *  - anl: the ANL is purely a prefetcher — its benefit shows up as
 *    *fewer* hierarchy cycles, never as cycles of its own.
 * Inventing latencies for these would change simulated timing, which
 * must stay bit-identical to the pre-accounting model.
 */

#ifndef TARTAN_SIM_CPISTACK_HH
#define TARTAN_SIM_CPISTACK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace tartan::sim {

/**
 * Version of the CPI category taxonomy. Bump whenever a category is
 * added, removed or renamed; bench_diff and the schema validator use
 * it to refuse cross-version comparisons.
 */
constexpr std::uint32_t kCpiTaxonomyVersion = 2;

/**
 * The category a simulated core cycle is attributed to. Every cycle
 * lands in exactly one category; enum order is the canonical schema
 * order (JSON payloads, epoch probes, split iteration).
 */
enum class CpiCat : std::uint8_t {
    Issue = 0,  //!< issue/compute: issue-width-limited execution
    L1,         //!< L1 port contention (vector lane issue)
    L2,         //!< stall cycles paid to the private L2
    L3,         //!< stall cycles paid to the shared L3
    Dram,       //!< stall cycles paid to DRAM beyond the L3
    Tlb,        //!< reserved: translation (no simulated cost today)
    PfLate,     //!< residual wait on late (in-flight) prefetches
    Writeback,  //!< reserved: write-backs retire off the critical path
    Fault,      //!< injected fault latency spikes (sim/fault)
    Npu,        //!< NPU configuration/inference device wait
    Ovec,       //!< OVEC/RACOD oriented-load engine wait
    Anl,        //!< reserved: the ANL only prefetches
    Coherence,  //!< MESI snoop/upgrade/forward wait (multi-core uncore)
    NumCats     //!< category count (not a category)
};

/** Number of CPI categories (array extents, schema checks). */
constexpr std::size_t kNumCpiCats = std::size_t(CpiCat::NumCats);

/** Canonical short name of one category (stable schema key). */
constexpr const char *
cpiCatName(CpiCat cat)
{
    switch (cat) {
      case CpiCat::Issue:
        return "issue";
      case CpiCat::L1:
        return "l1";
      case CpiCat::L2:
        return "l2";
      case CpiCat::L3:
        return "l3";
      case CpiCat::Dram:
        return "dram";
      case CpiCat::Tlb:
        return "tlb";
      case CpiCat::PfLate:
        return "pfLate";
      case CpiCat::Writeback:
        return "writeback";
      case CpiCat::Fault:
        return "fault";
      case CpiCat::Npu:
        return "npu";
      case CpiCat::Ovec:
        return "ovec";
      case CpiCat::Anl:
        return "anl";
      case CpiCat::Coherence:
        return "coherence";
      case CpiCat::NumCats:
        break;
    }
    return "?";
}

/** The category named @p name, or NumCats when unknown. */
inline CpiCat
cpiCatFromName(const std::string &name)
{
    for (std::size_t i = 0; i < kNumCpiCats; ++i)
        if (name == cpiCatName(CpiCat(i)))
            return CpiCat(i);
    return CpiCat::NumCats;
}

/** Fixed-size per-category cycle accumulator. */
struct CpiStack {
    /** Cycles per category, indexed by CpiCat (enum order). */
    Cycles cat[kNumCpiCats] = {};

    /** Mutable cycles of category @p c. */
    Cycles &operator[](CpiCat c) { return cat[std::size_t(c)]; }
    /** Cycles of category @p c. */
    Cycles operator[](CpiCat c) const { return cat[std::size_t(c)]; }

    /** Sum over all categories. */
    Cycles
    sum() const
    {
        Cycles total = 0;
        for (Cycles c : cat)
            total += c;
        return total;
    }

    /** Accumulate @p other into this stack, category by category. */
    void
    add(const CpiStack &other)
    {
        for (std::size_t i = 0; i < kNumCpiCats; ++i)
            cat[i] += other.cat[i];
    }

    /** Exact per-category equality. */
    friend bool
    operator==(const CpiStack &a, const CpiStack &b)
    {
        for (std::size_t i = 0; i < kNumCpiCats; ++i)
            if (a.cat[i] != b.cat[i])
                return false;
        return true;
    }
};

/** The categories a memory stall can touch: StallComponents' slots. */
constexpr CpiCat kStallCats[] = {CpiCat::L1, CpiCat::L2, CpiCat::L3,
    CpiCat::Dram, CpiCat::PfLate, CpiCat::Fault, CpiCat::Coherence};
static_assert(std::is_sorted(std::begin(kStallCats), std::end(kStallCats)),
              "stall slots follow CpiCat order, the split's order");
constexpr std::size_t kNumStallCats = std::size(kStallCats);  //!< slots

/** Uncompressed beyond-L1 latency split over the stall categories. */
struct StallComponents {
    Cycles slot[kNumStallCats] = {};  //!< cycles, indexed like kStallCats
    Cycles total = 0;                 //!< sum of the slots
};

/**
 * Split an MLP-compressed stall of @p stall cycles over the slots of
 * @p comp by the cumulative-floor method, calling @p charge(cat, share)
 * per nonzero slot: category i gets floor(cum_i*stall/total) -
 * floor(cum_{i-1}*stall/total), cum_i the running slot sum in CpiCat
 * order, total = comp.total. The shares telescope to exactly @p stall;
 * a Dependent stall (stall == total) pays each component exactly.
 * Fixed-order integer arithmetic is bit-reproducible across hosts.
 */
template <typename Charge>
inline void
splitStall(const StallComponents &comp, Cycles stall, Charge &&charge)
{
    const Cycles total = comp.total;
    Cycles cum = 0;
    Cycles prev = 0;
    for (std::size_t i = 0; i < kNumStallCats; ++i) {
        if (!comp.slot[i])
            continue;  // share 0, prev unchanged
        cum += comp.slot[i];
        // No division in the common cases: an uncompressed stall pays
        // each component; the slot completing the total ends at stall.
        const Cycles next = stall == total ? cum
                            : cum == total ? stall
                                           : cum * stall / total;
        charge(kStallCats[i], next - prev);
        prev = next;
    }
}

} // namespace tartan::sim

#endif // TARTAN_SIM_CPISTACK_HH
