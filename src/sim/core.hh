/**
 * @file
 * Analytical out-of-order core timing model.
 *
 * The model charges issue-width-limited cycles for computation and
 * hierarchy latency for memory accesses. Loads carry a memory-level-
 * parallelism hint: Dependent streams (pointer chasing) pay full miss
 * latency, Independent streams overlap up to `missOverlap` outstanding
 * misses. L1 hits are considered fully pipelined. Stores retire through
 * a write buffer and do not stall the core.
 *
 * Cycles and dynamic instructions are attributed to the currently active
 * *kernel* so that execution-time breakdowns (paper Fig. 1) and per-
 * kernel speedups can be reported.
 */

#ifndef TARTAN_SIM_CORE_HH
#define TARTAN_SIM_CORE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/cpistack.hh"
#include "sim/memsystem.hh"
#include "sim/types.hh"

namespace tartan::sim {

class CaptureSession;
class TraceSession;

/** Core configuration. */
struct CoreParams {
    /** Ops issued per cycle (a constant of the modelled core). */
    static constexpr std::uint32_t issueWidth = 4;
    /** Independent misses that can overlap in the OoO window. */
    static constexpr std::uint32_t missOverlap = 8;
    /** Vector lanes of one SIMD register (16 for AVX-512 floats). */
    std::uint32_t vectorLanes = 16;
};

/** Per-kernel cycle and instruction attribution. */
struct KernelCounters {
    std::string name;              //!< kernel name, as registered
    Cycles cycles = 0;             //!< cycles charged to the kernel
    Cycles memStallCycles = 0;     //!< the part of cycles stalled on memory
    std::uint64_t instructions = 0;  //!< dynamic instructions retired
    /**
     * CPI stack of this kernel: cycles per CpiCat category. The
     * categories partition `cycles` exactly (sum-to-total invariant,
     * checked by Core::checkInvariants at the end of every run and by
     * TARTAN_DCHECK on kernel switches).
     */
    CpiStack cpi;
};

/** The analytical OoO core. */
class Core
{
  public:
    Core(const CoreParams &params, MemPath *mem_path);

    /** Register a kernel name; returns its id for setKernel(). */
    std::uint32_t registerKernel(const std::string &name);
    /**
     * Attribute subsequent cycles/instructions to kernel @p id. A real
     * switch flushes the sub-issue-width op remainder into the outgoing
     * kernel (rounded up to one cycle) so fractional issue groups never
     * bleed into the next kernel's counters.
     */
    void setKernel(std::uint32_t id);
    std::uint32_t currentKernel() const { return kernelId; }

    /**
     * Attach (or detach, with nullptr) a trace session: kernel switches
     * and cycle advances feed its timeline and epoch sampler. Purely
     * observational — attaching never changes simulated timing.
     */
    void attachTrace(TraceSession *session);

    /**
     * Attach (or detach, with nullptr) a capture session: every public
     * op of this core is recorded for later replay (sim/capture), with
     * the simulated addresses its memory path translated. Purely
     * observational — recording never changes simulated timing. The
     * path must have no space bias (asserted): a capture holds the
     * unbiased addresses, and replay adds its own core's bias.
     */
    void attachCapture(CaptureSession *session);
    /** The attached capture session, or null (NPU/Pipeline hooks). */
    CaptureSession *captureSession() const { return capture; }

    /** Open a workload ROI phase on the trace (no-op when untraced). */
    void phaseBegin(const std::string &name);
    /** Close the innermost ROI phase (no-op when untraced). */
    void phaseEnd();

    /** Execute @p ops instructions of class @p cls. */
    void exec(std::uint64_t ops, OpClass cls = OpClass::IntAlu);
    /**
     * Charge raw cycles (e.g. a long-latency divide or NPU wait),
     * attributed to @p cat in the CPI stack (issue/compute unless the
     * caller is a device-wait path).
     */
    void stall(Cycles cycles, CpiCat cat = CpiCat::Issue);
    /** Charge raw instructions without cycles (folded ops). */
    void countInstructions(std::uint64_t n);

    /** Scalar load of @p size bytes. */
    void load(Addr addr, PcId pc, MemDep dep = MemDep::Independent,
              std::uint32_t size = 4);
    /** Scalar store of @p size bytes. */
    void store(Addr addr, PcId pc, std::uint32_t size = 4);

    /**
     * @{ The memory ops after translation. Each public memory op
     * translates its host addresses through the memory path's AddrMap,
     * records them, and calls its *At form, which replay calls with
     * the captured simulated addresses: one implementation, and replay
     * translates nothing. Host addresses drive only the write-through
     * and no-allocate range checks; simulated ones reach the caches.
     */
    void loadAt(Addr host, Addr sim, PcId pc, MemDep dep,
                std::uint32_t size);
    void storeAt(Addr host, Addr sim, PcId pc, std::uint32_t size);
    void deviceLoadLanesAt(std::span<const Addr> host,
                           std::span<const Addr> sim, PcId pc,
                           Cycles device_cycles, CpiCat device_cat);
    void vecLoadLanesAt(std::span<const Addr> host,
                        std::span<const Addr> sim, PcId pc,
                        Cycles ag_latency, std::uint32_t lane_size,
                        CpiCat ag_cat);
    void vecLoadContiguousAt(Addr base, std::uint32_t bytes,
                             const SpanImage &sim, PcId pc);
    /** @} */

    /** One vector ALU instruction. */
    void vecOp(std::uint64_t n = 1);
    /**
     * DMA-style device access (e.g. a RACOD ASIC walking the map): the
     * lanes traverse the memory system concurrently without consuming
     * any CPU instructions; @p device_cycles models the accelerator's
     * own processing time, attributed to @p device_cat in the CPI
     * stack (the oriented-load engines are the only callers today).
     */
    void deviceLoadLanes(std::span<const Addr> lanes, PcId pc,
                         Cycles device_cycles,
                         CpiCat device_cat = CpiCat::Ovec);
    /**
     * One vector load instruction touching the given (scattered) lane
     * addresses in parallel after @p ag_latency cycles of address
     * generation. Scattered lanes contend for L1 ports: issue occupies
     * lanes / 4 cycles on top of the address generation. The address-
     * generation cycles are attributed to @p ag_cat (OVEC passes
     * CpiCat::Ovec for its hardware AG unit); the port-contention
     * cycles land in the L1 category.
     */
    void vecLoadLanes(std::span<const Addr> lanes, PcId pc,
                      Cycles ag_latency, std::uint32_t lane_size = 4,
                      CpiCat ag_cat = CpiCat::Issue);

    /**
     * One packed (contiguous) vector load of @p bytes starting at
     * @p base: a single instruction touching each spanned cacheline
     * once — the fast path VLN's bucket scans ride on.
     */
    void vecLoadContiguous(Addr base, std::uint32_t bytes, PcId pc);

    Cycles cycles() const { return totalCycles; }
    Cycles memStallCycles() const { return totalMemStall; }
    std::uint64_t instructions() const { return totalInstructions; }
    /**
     * Machine-wide CPI stack: every simulated cycle attributed to one
     * CpiCat category. Categories partition cycles() exactly; the
     * per-category counters are stable storage, so the epoch sampler
     * references them directly.
     */
    const CpiStack &cpiTotals() const { return cpiTotal; }

    const std::vector<KernelCounters> &kernels() const { return kernelData; }
    MemPath &mem() { return *memPath; }
    const CoreParams &params() const { return config; }

    /**
     * Panic unless the kernel rows and CPI stacks partition the core
     * totals exactly (3 checks). A violation is a simulator bug.
     */
    void checkInvariants() const;

  private:
    /** The single chokepoint every charged cycle flows through: adds
     *  @p c to the totals, the current kernel, and category @p cat. */
    void addCycles(Cycles c, CpiCat cat);
    /** Charge a memory stall of @p stall cycles, split over @p comp by
     *  splitStall; one cycle advance, so trace epochs are unchanged. */
    void chargeMemStall(Cycles stall, const StallComponents &comp);
    void addInstructions(std::uint64_t n);
    /** Translate @p lanes into simScratch; returns the result. */
    std::span<const Addr> translateLanes(std::span<const Addr> lanes);
    /** Stall beyond L1 for one access, applying the MLP hint. */
    Cycles loadStall(const AccessResult &res, MemDep dep);
    /**
     * Decompose the beyond-L1 latency of @p res into stall categories
     * (L2/L3/DRAM by servicing level, pfLate, fault and coherence from
     * the tagged result fields) accumulated into @p comp, total too.
     */
    void stallComponents(const AccessResult &res, StallComponents &comp) const;

    CoreParams config;
    MemPath *memPath;
    TraceSession *trace = nullptr;  //!< observability hook (not owned)
    CaptureSession *capture = nullptr;  //!< capture hook (not owned)

    Cycles totalCycles = 0;
    Cycles totalMemStall = 0;
    std::uint64_t totalInstructions = 0;
    CpiStack cpiTotal;          //!< machine-wide per-category cycles
    std::uint64_t opCarry = 0;  //!< sub-issue-width op remainder

    std::uint32_t kernelId = 0;
    std::vector<KernelCounters> kernelData;
    /** Simulated lanes or span grains of the op being issued (reused). */
    std::vector<Addr> simScratch;
};

/** RAII helper that scopes cycle attribution to a kernel. */
class ScopedKernel
{
  public:
    ScopedKernel(Core &core, std::uint32_t id)
        : coreRef(core), saved(core.currentKernel())
    {
        coreRef.setKernel(id);
    }
    ~ScopedKernel() { coreRef.setKernel(saved); }

    ScopedKernel(const ScopedKernel &) = delete;
    ScopedKernel &operator=(const ScopedKernel &) = delete;

  private:
    Core &coreRef;
    std::uint32_t saved;
};

/**
 * RAII helper that scopes a trace ROI phase (frame, pipeline stage).
 * A no-op when the core has no trace session attached.
 */
class ScopedPhase
{
  public:
    ScopedPhase(Core &core, const std::string &name) : coreRef(core)
    {
        coreRef.phaseBegin(name);
    }
    ~ScopedPhase() { coreRef.phaseEnd(); }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Core &coreRef;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_CORE_HH
