/**
 * @file
 * Workload framework implementation.
 */

#include "workloads/common.hh"

#include <algorithm>
#include <functional>

#include "robotics/pc_names.hh"
#include "sim/logging.hh"

namespace tartan::workloads {

using tartan::sim::Cycles;
using tartan::sim::KernelCounters;
using tartan::sim::SysConfig;

MachineSpec
MachineSpec::stockBaseline()
{
    MachineSpec spec;
    spec.sys.lineBytes = 64;
    spec.sys.core.vectorLanes = 8;  // AVX2
    return spec;
}

MachineSpec
MachineSpec::baseline()
{
    MachineSpec spec;
    spec.sys.lineBytes = 32;        // UDM-driven cacheline shrink
    spec.sys.core.vectorLanes = 16; // AVX-512
    spec.wtQueues = true;
    return spec;
}

MachineSpec
MachineSpec::tartan()
{
    MachineSpec spec = baseline();
    spec.useAnl = true;
    spec.ovec = true;
    spec.npu = true;
    spec.sys.fcpEnabled = true;
    return spec;
}

Machine::Machine(const MachineSpec &spec, const WorkloadOptions &opt)
    : specData(spec)
{
    specData.sys.trace = opt.trace;
    if (opt.trace)
        opt.trace->setSites(robotics::pcSites());
    specData.sys.faults = opt.faults;
    sys = std::make_unique<tartan::sim::System>(specData.sys);
    // Workload runs always simulate in the deterministic address
    // space: host pointers are translated before they reach the
    // caches, so results are bit-identical whether the run executes
    // serially or on a RunPool worker (heap ASLR and per-thread malloc
    // arenas shift host addresses between the two). On a multi-core
    // machine every core gets its own translator, biased so the
    // robots' simulated spaces are disjoint in the shared L3: honest
    // capacity and bandwidth contention, no fake sharing.
    for (std::size_t i = 0; i < sys->coreCount(); ++i) {
        sys->mem(i).enableDeterministicAddressing();
        if (i)
            sys->mem(i).addrTranslator()->setSpaceBias(
                tartan::sim::Addr(i) << 48);
        if (spec.useAnl) {
            core::AnlConfig anl = spec.anlCfg;
            anl.lineBytes = spec.sys.lineBytes;
            sys->mem(i).setPrefetcher(
                std::make_unique<core::AnlPrefetcher>(anl));
        }
    }
    if (spec.ovec)
        ovecEngine = std::make_unique<core::OvecEngine>(
            spec.sys.core.vectorLanes, 5);
    if (spec.npu)
        npuModel = std::make_unique<core::NpuModel>(spec.npuCfg);
    if (npuModel && opt.faults)
        npuModel->setFaultInjector(opt.faults);
    memHandle = robotics::Mem(&sys->core());
    if (opt.capture) {
        sys->core().attachCapture(opt.capture);
        sys->mem().setCapture(opt.capture);
    }
}

robotics::OrientedEngine &
Machine::orientedEngine(SoftwareTier tier, OrientedKind kind)
{
    switch (kind) {
      case OrientedKind::Scalar:
        return scalarEngine;
      case OrientedKind::Ovec:
        if (!ovecEngine)
            ovecEngine = std::make_unique<core::OvecEngine>(
                specData.sys.core.vectorLanes, 5);
        return *ovecEngine;
      case OrientedKind::Gather:
        if (!gatherEngine)
            gatherEngine = std::make_unique<core::GatherEngine>(
                specData.sys.core.vectorLanes);
        return *gatherEngine;
      case OrientedKind::Racod:
        if (!racodEngine)
            racodEngine = std::make_unique<core::RacodEngine>();
        return *racodEngine;
      case OrientedKind::Auto:
        break;
    }
    if (tier != SoftwareTier::Legacy && ovecEngine)
        return *ovecEngine;
    return scalarEngine;
}

void
Pipeline::stageBegin(std::uint32_t threads)
{
    if (auto *cap = coreRef.captureSession())
        cap->stageBegin(threads);
    stageThreads = threads;
    items.clear();
}

void
Pipeline::itemBegin()
{
    if (auto *cap = coreRef.captureSession())
        cap->itemBegin();
    itemStart = coreRef.cycles();
}

void
Pipeline::itemEnd()
{
    items.push_back(coreRef.cycles() - itemStart);
    if (auto *cap = coreRef.captureSession())
        cap->itemEnd();
}

void
Pipeline::stageEnd()
{
    if (auto *cap = coreRef.captureSession())
        cap->stageEnd();
    // LPT makespan: longest item first, each onto the least-loaded of
    // the stage's model cores.
    const std::uint32_t workers = std::min(stageThreads, kModelCores);
    if (items.empty() || workers == 0)
        return;
    std::sort(items.begin(), items.end(), std::greater<>());
    std::vector<Cycles> bins(std::min<std::size_t>(workers, items.size()),
                             0);
    for (Cycles d : items)
        *std::min_element(bins.begin(), bins.end()) += d;
    wall += *std::max_element(bins.begin(), bins.end());
}

void
Pipeline::serialBegin()
{
    if (auto *cap = coreRef.captureSession())
        cap->serialBegin();
    serialStart = coreRef.cycles();
}

void
Pipeline::serialEnd()
{
    wall += coreRef.cycles() - serialStart;
    if (auto *cap = coreRef.captureSession())
        cap->serialEnd();
}

void
Pipeline::overlapBegin()
{
    if (auto *cap = coreRef.captureSession())
        cap->overlapBegin();
    overlapStart = coreRef.cycles();
}

void
Pipeline::overlapEnd()
{
    overlapAcc += coreRef.cycles() - overlapStart;
    if (auto *cap = coreRef.captureSession())
        cap->overlapEnd();
}

void
Pipeline::discountOverlap(Cycles divisor)
{
    TARTAN_ASSERT(divisor != 0, "wall discount by zero");
    discounts.push_back({divisor, overlapAcc, {}});
    overlapAcc = 0;
    if (auto *cap = coreRef.captureSession())
        cap->discountRegion(divisor);
}

void
Pipeline::discountKernels(std::vector<std::uint64_t> ids, Cycles divisor)
{
    TARTAN_ASSERT(divisor != 0, "wall discount by zero");
    if (auto *cap = coreRef.captureSession())
        cap->discountKernels(ids, divisor);
    discounts.push_back({divisor, 0, std::move(ids)});
}

Cycles
Pipeline::wallCycles(std::span<const KernelCounters> kernels) const
{
    Cycles w = wall;
    for (const Discount &d : discounts) {
        // Sum first, divide once: divide-per-kernel would round
        // differently.
        Cycles sum = d.regionCycles;
        for (std::uint64_t id : d.kernelIds)
            if (id < kernels.size())
                sum += kernels[id].cycles;
        w -= sum - sum / d.divisor;
    }
    return w;
}

void
summarize(Machine &machine, const Pipeline &pipeline, RunResult &result,
          std::size_t core_idx)
{
    auto &core = machine.core(core_idx);
    result.workCycles = core.cycles();
    result.instructions = core.instructions();
    result.kernels = core.kernels();
    result.wallCycles = pipeline.wallCycles(result.kernels);

    Cycles best = 0;
    for (const auto &k : result.kernels) {
        if (k.name != "other" && k.cycles > best) {
            best = k.cycles;
            result.bottleneckKernel = k.name;
        }
    }
    result.bottleneckShare =
        result.workCycles
            ? static_cast<double>(best) /
                  static_cast<double>(result.workCycles)
            : 0.0;

    auto &mem_path = machine.system().mem(core_idx);
    mem_path.drainDirty();
    machine.system().checkInvariants();
    result.l1Accesses = mem_path.l1().stats().accesses();
    result.l1Misses = mem_path.l1().stats().misses;
    result.l2Misses = mem_path.l2().stats().misses;
    result.l2Accesses = mem_path.l2().stats().accesses();
    result.l3Traffic = mem_path.stats.l3Traffic();
    result.pfIssued = mem_path.stats.pfIssued;
    result.pfHitsTimely = mem_path.stats.pfHitsTimely;
    result.pfHitsLate = mem_path.stats.pfHitsLate;
    result.udmFetchedBytes = mem_path.l1().stats().udmFetchedBytes;
    result.udmUsedBytes = mem_path.l1().stats().udmUsedBytes;
    if (core::NpuModel *npu = machine.npu()) {
        result.npuInvocations = npu->stats().invocations;
        result.npuCommCycles = npu->stats().commCycles;
    }
}

} // namespace tartan::workloads
