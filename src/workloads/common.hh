/**
 * @file
 * Shared workload framework: machine specifications (baseline vs
 * Tartan), software tiers (legacy / optimized / approximate, paper
 * Fig. 12), run results, and the modelled wall clock of a run
 * (Pipeline), which summarize() folds into the result.
 */

#ifndef TARTAN_WORKLOADS_COMMON_HH
#define TARTAN_WORKLOADS_COMMON_HH

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/anl.hh"
#include "core/npu.hh"
#include "core/ovec.hh"
#include "robotics/oriented.hh"
#include "sim/arena.hh"
#include "sim/capture.hh"
#include "sim/fault.hh"
#include "sim/system.hh"
#include "sim/trace.hh"

namespace tartan::workloads {

using tartan::sim::ScopedKernel;
using tartan::sim::ScopedPhase;

/** Software tiers evaluated in Fig. 12. */
enum class SoftwareTier {
    Legacy,      //!< RoWild software as-is (scalar, brute-force NNS)
    Optimized,   //!< rewritten for Tartan (OVEC kernels, VLN), exact
    Approximate, //!< additionally uses the NPU (AXAR / TRAP / native)
};

/** NNS backend selector (Fig. 9). */
enum class NnsKind { Brute, KdTree, Lsh, Vln };

/** Oriented-load engine selector (Fig. 6). */
enum class OrientedKind { Auto, Scalar, Ovec, Gather, Racod };

/** Hardware platform description. */
struct MachineSpec {
    tartan::sim::SysConfig sys;
    bool useAnl = false;             //!< install the ANL prefetcher
    core::AnlConfig anlCfg;
    bool ovec = false;               //!< O_MOVE available
    bool npu = false;                //!< integrated NPU available
    core::NpuConfig npuCfg;
    bool wtQueues = false;           //!< MTRR WT inter-stage buffers

    /** Upgraded baseline (paper §III-A): AVX-512, 32 B lines, WT. */
    static MachineSpec baseline();
    /** Pre-upgrade machine: AVX2 (8 lanes), 64 B lines, no WT. */
    static MachineSpec stockBaseline();
    /** Full Tartan: baseline + OVEC + ANL + FCP + NPU. */
    static MachineSpec tartan();
};

/** Per-run workload options. */
struct WorkloadOptions {
    SoftwareTier tier = SoftwareTier::Optimized;
    double scale = 1.0;      //!< shrink factor for parameter sweeps
    std::uint64_t seed = 42;
    /** NNS backend override; defaults derived from the tier. */
    NnsKind nns = NnsKind::Vln;
    bool nnsExplicit = false;
    /** Oriented-engine override (Auto: OVEC when available). */
    OrientedKind oriented = OrientedKind::Auto;
    /**
     * Execute neural surrogates in software on the CPU instead of the
     * NPU (the 'S' configuration of paper Fig. 8). Only meaningful for
     * the Approximate tier.
     */
    bool softwareNeural = false;

    /**
     * Time-resolved tracing session (not owned; null = off). Robots
     * pass this through to Machine so kernel timelines, epoch samples
     * and per-PC attribution flow into the session.
     */
    tartan::sim::TraceSession *trace = nullptr;

    /**
     * Fault injector for this run (not owned; null = no faults). Wired
     * into the memory path and the NPU by Machine, and used by the
     * robots to corrupt their synthesised sensor readings. Every robot
     * reports metrics["faultsInjected"] and metrics["recoveries"] when
     * an injector is attached.
     */
    tartan::sim::FaultInjector *faults = nullptr;

    /**
     * Capture session recording this run's Core-boundary op stream for
     * later replay (not owned; null = no capture). Wired into the core
     * and memory path by Machine. Purely observational: a captured run
     * produces bit-identical results to an uncaptured one.
     */
    tartan::sim::CaptureSession *capture = nullptr;
};

/** Outcome of one robot run. */
struct RunResult {
    std::string robot;
    tartan::sim::Cycles wallCycles = 0;     //!< with thread-level overlap
    tartan::sim::Cycles workCycles = 0;     //!< total core work
    std::uint64_t instructions = 0;
    std::vector<tartan::sim::KernelCounters> kernels;
    std::string bottleneckKernel;
    double bottleneckShare = 0.0;           //!< of work cycles

    // Memory-system snapshot.
    std::uint64_t l1Accesses = 0;  //!< demand accesses reaching the L1
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l3Traffic = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfHitsTimely = 0;
    std::uint64_t pfHitsLate = 0;
    std::uint64_t udmFetchedBytes = 0;
    std::uint64_t udmUsedBytes = 0;
    std::uint64_t npuInvocations = 0;
    tartan::sim::Cycles npuCommCycles = 0;

    /** Robot-specific quality metrics (localisation error, ...). */
    std::map<std::string, double> metrics;
};

/** One simulated machine instance wired up from a MachineSpec. */
class Machine
{
  public:
    /** @p spec's machine, with @p opt's trace/fault/capture hooks. */
    Machine(const MachineSpec &spec, const WorkloadOptions &opt);

    tartan::sim::System &system() { return *sys; }
    /** Core @p i (default 0 — the core live robots execute on). */
    tartan::sim::Core &core(std::size_t i = 0) { return sys->core(i); }
    /** Instantiated core count (1 unless spec.sys.simCores > 1). */
    std::size_t coreCount() const { return sys->coreCount(); }
    robotics::Mem &mem() { return memHandle; }
    const MachineSpec &spec() const { return specData; }

    /**
     * Register @p arena as a linearly-mapped segment of the
     * deterministic address space, preserving its internal layout
     * (cache-set mapping, prefetch-region structure) exactly. Call
     * right after creating the arena, before anything in it is
     * accessed.
     */
    void
    mapArena(const tartan::sim::Arena &arena)
    {
        sys->mem().mapSegment(arena.base(), arena.capacityBytes());
    }

    /** Oriented engine per tier: OVEC when available and optimised. */
    robotics::OrientedEngine &orientedEngine(SoftwareTier tier,
                                             OrientedKind kind =
                                                 OrientedKind::Auto);

    /** NPU (null when the machine has none). */
    core::NpuModel *npu() { return npuModel.get(); }

  private:
    MachineSpec specData;
    std::unique_ptr<tartan::sim::System> sys;
    robotics::Mem memHandle;
    robotics::ScalarOrientedEngine scalarEngine;
    std::unique_ptr<core::OvecEngine> ovecEngine;
    std::unique_ptr<core::GatherEngine> gatherEngine;
    std::unique_ptr<core::RacodEngine> racodEngine;
    std::unique_ptr<core::NpuModel> npuModel;
};

/**
 * The modelled wall clock of one run on one core — the only
 * implementation of the thread model, driven by the robots directly
 * and by ReplayStream from the captured markers.
 *
 * A stage's work items run one after another on the simulated core
 * while their individual durations are recorded; the stage is charged
 * the longest-processing-time-first makespan of those items over
 * min(threads, kModelCores) virtual cores. A serial section is charged
 * its core cycles. Overlapped regions and data-parallel kernels are
 * discounted to a 1/divisor share: each discount is recorded as pending
 * and applied, in record order, when summarize() reads wallCycles().
 *
 * Every marker primitive also writes its capture record when the core
 * has a capture session, so a replay of the run drives the same calls
 * in the same order on its own clock. Stages do not nest.
 */
class Pipeline
{
  public:
    explicit Pipeline(tartan::sim::Core &core) : coreRef(core) {}

    /** @{ Marker primitives (stage(), serial() are built from them). */
    void stageBegin(std::uint32_t threads);
    void itemBegin();
    void itemEnd();
    void stageEnd();
    void serialBegin();
    void serialEnd();
    void overlapBegin();
    void overlapEnd();
    /**
     * Keep a 1/@p divisor wall share of the cycles bracketed by
     * overlapBegin/overlapEnd since the previous discountOverlap().
     */
    void discountOverlap(tartan::sim::Cycles divisor);
    /** Keep a 1/@p divisor wall share of the kernels @p ids' cycles. */
    void discountKernels(std::vector<std::uint64_t> ids,
                         tartan::sim::Cycles divisor);
    /** @} */

    /** Run @p items work items with @p fn, modelling @p threads. */
    template <typename Fn>
    void
    stage(std::uint32_t threads, std::uint32_t items, Fn &&fn)
    {
        stageBegin(threads);
        for (std::uint32_t i = 0; i < items; ++i) {
            itemBegin();
            fn(i);
            itemEnd();
        }
        stageEnd();
    }

    /** Run a serial section. */
    template <typename Fn>
    void
    serial(Fn &&fn)
    {
        serialBegin();
        fn();
        serialEnd();
    }

    /** Physical cores of the pipeline thread model (paper platform). */
    static constexpr std::uint32_t kModelCores = 4;

    /**
     * Stage makespans plus serial sections, minus the pending discounts
     * in record order; kernel discounts sum the cycles of @p kernels.
     */
    tartan::sim::Cycles wallCycles(
        std::span<const tartan::sim::KernelCounters> kernels) const;

  private:
    struct Discount {
        tartan::sim::Cycles divisor;
        tartan::sim::Cycles regionCycles;  //!< overlap discount
        std::vector<std::uint64_t> kernelIds;  //!< kernel discount
    };

    tartan::sim::Core &coreRef;
    tartan::sim::Cycles wall = 0;
    std::uint32_t stageThreads = 0;
    tartan::sim::Cycles itemStart = 0;
    std::vector<tartan::sim::Cycles> items;  //!< current stage
    tartan::sim::Cycles serialStart = 0;
    tartan::sim::Cycles overlapStart = 0;
    tartan::sim::Cycles overlapAcc = 0;
    std::vector<Discount> discounts;
};

/**
 * End a run on core @p core_idx: fill @p result's kernel table,
 * bottleneck and totals, take the wall clock from @p pipeline, drain
 * the dirty lines, check every counter invariant of the machine and
 * snapshot the memory-system stats.
 */
void summarize(Machine &machine, const Pipeline &pipeline,
               RunResult &result, std::size_t core_idx = 0);

} // namespace tartan::workloads

#endif // TARTAN_WORKLOADS_COMMON_HH
