/**
 * @file
 * Workload framework implementation.
 */

#include "workloads/common.hh"

#include <algorithm>

#include "robotics/pc_names.hh"

namespace tartan::workloads {

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
    spec.anlCfg.lineBytes = spec.sys.lineBytes;
    spec.ovec = true;
    spec.npu = true;
    spec.sys.fcpEnabled = true;
    return spec;
}

Machine::Machine(const MachineSpec &spec, const WorkloadOptions &opt)
    : specData(spec)
{
    // Registered unconditionally (idempotent) so the traced and
    // untraced paths perform identical host allocations: the simulator
    // reads host pointers as simulated addresses, so asymmetric heap
    // traffic would perturb the measured cache behaviour.
    robotics::registerPcSites();
    specData.sys.trace = opt.trace;
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
Machine::finish(RunResult &result, std::size_t core_idx)
{
    auto &mem_path = sys->mem(core_idx);
    mem_path.drainDirty();
    sys->checkInvariants();
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
    if (npuModel) {
        result.npuInvocations = npuModel->stats().invocations;
        result.npuCommCycles = npuModel->stats().commCycles;
    }
}

void
summarize(Machine &machine, Pipeline &pipeline, RunResult &result)
{
    summarize(machine, pipeline.wallCycles(), result);
}

void
discountKernels(tartan::sim::Core &core, RunResult &result,
                std::initializer_list<std::uint32_t> kernels,
                tartan::sim::Cycles divisor)
{
    tartan::sim::Cycles sum = 0;
    for (std::uint32_t id : kernels)
        if (id < result.kernels.size())
            sum += result.kernels[id].cycles;
    // Sum first, divide once: divide-per-kernel would round differently
    // and break bit-identity with the historical arithmetic.
    result.wallCycles -= sum - sum / divisor;
    if (auto *cap = core.captureSession()) {
        std::vector<std::uint32_t> ids(kernels);
        cap->discountKernels(ids, divisor);
    }
}

void
summarize(Machine &machine, tartan::sim::Cycles wall_cycles,
          RunResult &result, std::size_t core_idx)
{
    auto &core = machine.core(core_idx);
    result.wallCycles = wall_cycles;
    result.workCycles = core.cycles();
    result.instructions = core.instructions();
    result.kernels = core.kernels();

    tartan::sim::Cycles best = 0;
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
    machine.finish(result, core_idx);
}

} // namespace tartan::workloads
