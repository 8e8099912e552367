/**
 * @file
 * Core timing-model implementation.
 */

#include "sim/core.hh"

#include <algorithm>

#include "sim/capture.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sim/watchdog.hh"

namespace tartan::sim {

Core::Core(const CoreParams &params, MemPath *mem_path)
    : config(params), memPath(mem_path)
{
    TARTAN_ASSERT(memPath, "Core requires a memory path");
    kernelData.push_back(KernelCounters{"other", 0, 0, 0, {}});
}

void
Core::checkInvariants() const
{
    Cycles cycles = 0;
    Cycles mem_stall = 0;
    std::uint64_t instructions = 0;
    CpiStack all;
    bool kernel_stacks_sum = true;
    for (const KernelCounters &k : kernelData) {
        cycles += k.cycles;
        mem_stall += k.memStallCycles;
        instructions += k.instructions;
        kernel_stacks_sum = kernel_stacks_sum && k.cpi.sum() == k.cycles;
        all.add(k.cpi);
    }
    // Kernel attribution is exhaustive: with the sub-issue-width
    // remainder flushed on every switch, the per-kernel rows partition
    // the core totals exactly.
    TARTAN_ASSERT(cycles == totalCycles && mem_stall == totalMemStall &&
                      instructions == totalInstructions,
                  "kernel attributions sum to core totals");
    // Cycle accounting is exhaustive and exclusive: every charged
    // cycle flows through addCycles/addMemStall with exactly one
    // category, so the CPI stacks partition the cycle totals.
    TARTAN_ASSERT(cpiTotal.sum() == totalCycles,
                  "cpi categories sum to total cycles");
    TARTAN_ASSERT(kernel_stacks_sum && all == cpiTotal,
                  "kernel cpi stacks sum to kernel cycles");
}

std::uint32_t
Core::registerKernel(const std::string &name)
{
    if (capture)
        capture->registerKernel(name);
    kernelData.push_back(KernelCounters{name, 0, 0, 0, {}});
    return static_cast<std::uint32_t>(kernelData.size() - 1);
}

void
Core::setKernel(std::uint32_t id)
{
    TARTAN_ASSERT(id < kernelData.size(), "unknown kernel id");
    if (id == kernelId)
        return;
    if (capture)
        capture->setKernel(id);
    // Flush the sub-issue-width op remainder into the outgoing kernel
    // (rounded up to a full issue cycle): leaving it to carry over
    // would charge this kernel's fractional cycles to the next one.
    if (opCarry) {
        opCarry = 0;
        addCycles(1, CpiCat::Issue);
    }
    TARTAN_DCHECK(kernelData[kernelId].cpi.sum() ==
                      kernelData[kernelId].cycles,
                  "kernel '%s' CPI stack out of sync with its cycles",
                  kernelData[kernelId].name.c_str());
    kernelId = id;
    if (trace)
        trace->kernelSwitch(kernelData[id].name, totalCycles);
}

void
Core::attachTrace(TraceSession *session)
{
    trace = session;
    if (trace) {
        trace->setInstructionProbe(&totalInstructions);
        trace->kernelSwitch(kernelData[kernelId].name, totalCycles);
    }
}

void
Core::phaseBegin(const std::string &name)
{
    if (trace)
        trace->phaseBegin(name, totalCycles);
}

void
Core::phaseEnd()
{
    if (trace)
        trace->phaseEnd(totalCycles);
}

void
Core::addCycles(Cycles c, CpiCat cat)
{
    // Campaign-liveness tick: near-free without an armed watch (one
    // thread-local pointer test); with one, a timed-out cell unwinds
    // from here via CellTimeoutError.
    heartbeat();
    cpiTotal[cat] += c;
    kernelData[kernelId].cpi[cat] += c;
    totalCycles += c;
    kernelData[kernelId].cycles += c;
    if (trace)
        trace->tick(totalCycles);
}

void
Core::addMemStall(Cycles c, const CpiStack &split)
{
    heartbeat();  // same liveness tick as addCycles
    TARTAN_DCHECK(split.sum() == c,
                  "CPI stall split (%llu) must sum to the stall (%llu)",
                  static_cast<unsigned long long>(split.sum()),
                  static_cast<unsigned long long>(c));
    cpiTotal.add(split);
    kernelData[kernelId].cpi.add(split);
    totalMemStall += c;
    kernelData[kernelId].memStallCycles += c;
    // One cycle advance (not one per category): trace epoch sampling
    // observes the same tick sequence as the pre-accounting model.
    totalCycles += c;
    kernelData[kernelId].cycles += c;
    if (trace)
        trace->tick(totalCycles);
}

void
Core::addInstructions(std::uint64_t n)
{
    totalInstructions += n;
    kernelData[kernelId].instructions += n;
}

void
Core::exec(std::uint64_t ops, OpClass cls)
{
    if (capture)
        capture->exec(ops, std::uint8_t(cls));
    (void)cls;  // all scalar classes share the issue width in this model
    addInstructions(ops);
    opCarry += ops;
    const Cycles whole = opCarry / config.issueWidth;
    opCarry %= config.issueWidth;
    if (whole)
        addCycles(whole, CpiCat::Issue);
}

void
Core::stall(Cycles cycles, CpiCat cat)
{
    if (capture)
        capture->stall(cycles, std::uint8_t(cat));
    addCycles(cycles, cat);
}

void
Core::countInstructions(std::uint64_t n)
{
    if (capture)
        capture->countInstructions(n);
    addInstructions(n);
}

Cycles
Core::loadStall(const AccessResult &res, MemDep dep)
{
    const Cycles l1_lat = memPath->params().l1.latency;
    if (res.latency <= l1_lat)
        return 0;  // L1 hits are pipelined
    const Cycles beyond = res.latency - l1_lat;
    if (dep == MemDep::Dependent)
        return beyond;
    return (beyond + config.missOverlap - 1) / config.missOverlap;
}

Cycles
Core::stallComponents(const AccessResult &res, CpiStack &comp) const
{
    const MemPathParams &mp = memPath->params();
    const Cycles l1_lat = mp.l1.latency;
    if (res.latency <= l1_lat)
        return 0;
    const Cycles beyond = res.latency - l1_lat;
    // Tagged components first (injected spikes, late-prefetch
    // residuals); what remains is hierarchy latency split by the level
    // that serviced the access.
    Cycles rest = beyond;
    const Cycles fault = std::min(res.faultCycles, rest);
    rest -= fault;
    const Cycles late = std::min(res.lateCycles, rest);
    rest -= late;
    const Cycles coher = std::min(res.coherenceCycles, rest);
    rest -= coher;
    Cycles l2 = 0, l3 = 0, dram = 0;
    switch (res.level) {
      case MemLevel::L1:
        // Only a tagged component can push an L1 hit beyond the L1
        // latency; any untagged remainder is charged to the L1 itself.
        comp[CpiCat::L1] += rest;
        rest = 0;
        break;
      case MemLevel::L2:
        l2 = rest;
        break;
      case MemLevel::L3:
        l2 = std::min(mp.l2.latency, rest);
        l3 = rest - l2;
        break;
      case MemLevel::Dram:
        l2 = std::min(mp.l2.latency, rest);
        l3 = std::min(mp.l3Latency, rest - l2);
        dram = rest - l2 - l3;
        break;
      case MemLevel::NumLevels:
        break;
    }
    comp[CpiCat::L2] += l2;
    comp[CpiCat::L3] += l3;
    comp[CpiCat::Dram] += dram;
    comp[CpiCat::PfLate] += late;
    comp[CpiCat::Fault] += fault;
    comp[CpiCat::Coherence] += coher;
    return beyond;
}

void
Core::load(Addr addr, PcId pc, MemDep dep, std::uint32_t size)
{
    if (capture)
        capture->load(addr, pc, std::uint8_t(dep), size);
    addInstructions(1);
    auto res = memPath->access(addr, AccessType::Load, size, pc,
                               totalCycles);
    const Cycles s = loadStall(res, dep);
    if (s) {
        CpiStack comp;
        const Cycles beyond = stallComponents(res, comp);
        addMemStall(s, splitStall(comp, beyond, s));
    }
}

void
Core::store(Addr addr, PcId pc, std::uint32_t size)
{
    if (capture)
        capture->store(addr, pc, size);
    addInstructions(1);
    // Stores retire through the write buffer; cache state is still
    // updated so that later loads and traffic statistics are correct.
    memPath->access(addr, AccessType::Store, size, pc, totalCycles);
}

void
Core::vecOp(std::uint64_t n)
{
    if (capture)
        capture->vecOp(n);
    addInstructions(n);
    // Vector units sustain one op per cycle in this model.
    addCycles(n, CpiCat::Issue);
}

void
Core::deviceLoadLanes(std::span<const Addr> lanes, PcId pc,
                      Cycles device_cycles, CpiCat device_cat)
{
    if (capture)
        capture->deviceLoadLanes(lanes, pc, device_cycles,
                                 std::uint8_t(device_cat));
    if (device_cycles)
        addCycles(device_cycles, device_cat);
    // The accelerator streams the lanes through the same bandwidth-
    // bound overlap window as the core's OoO engine. Per-category
    // components aggregate across lanes first; the compressed stall is
    // then split over the aggregate, so the attribution is independent
    // of lane order within a batch.
    Cycles total_beyond = 0;
    CpiStack comp;
    for (Addr lane : lanes) {
        auto res = memPath->access(lane, AccessType::Load, 4, pc,
                                   totalCycles);
        total_beyond += stallComponents(res, comp);
    }
    const std::uint32_t overlap = config.missOverlap;
    const Cycles stall = (total_beyond + overlap - 1) / overlap;
    if (stall)
        addMemStall(stall, splitStall(comp, total_beyond, stall));
}

void
Core::vecLoadLanes(std::span<const Addr> lanes, PcId pc, Cycles ag_latency,
                   std::uint32_t lane_size, CpiCat ag_cat)
{
    if (capture)
        capture->vecLoadLanes(lanes, pc, ag_latency, lane_size,
                              std::uint8_t(ag_cat));
    addInstructions(1);
    if (ag_latency)
        addCycles(ag_latency, ag_cat);
    // Scattered lanes contend for the L1 ports.
    addCycles((lanes.size() + 3) / 4, CpiCat::L1);
    // Lanes issue concurrently but remain bandwidth-bound: the stall is
    // the aggregate beyond-L1 latency through the same miss-overlap
    // window a scalar stream enjoys, floored by the slowest lane.
    Cycles total_beyond = 0;
    Cycles worst = 0;
    CpiStack comp;
    for (Addr lane : lanes) {
        auto res = memPath->access(lane, AccessType::Load, lane_size, pc,
                                   totalCycles);
        if (res.latency > memPath->params().l1.latency)
            worst = std::max(worst,
                             loadStall(res, MemDep::Independent));
        total_beyond += stallComponents(res, comp);
    }
    const Cycles stall = std::max(
        worst, (total_beyond + config.missOverlap - 1) /
                   config.missOverlap);
    if (stall)
        addMemStall(stall, splitStall(comp, total_beyond, stall));
}

void
Core::vecLoadContiguous(Addr base, std::uint32_t bytes, PcId pc)
{
    if (capture)
        capture->vecLoadContiguous(base, bytes, pc);
    addInstructions(1);
    addCycles(1, CpiCat::Issue);
    // The path walks the span line by line; the worst per-line latency
    // bounds the stall (lines issue concurrently).
    auto res = memPath->accessRange(base, bytes, pc, totalCycles);
    const Cycles worst = loadStall(res, MemDep::Independent);
    if (worst) {
        CpiStack comp;
        const Cycles beyond = stallComponents(res, comp);
        addMemStall(worst, splitStall(comp, beyond, worst));
    }
}

} // namespace tartan::sim
