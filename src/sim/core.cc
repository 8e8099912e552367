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
    // cycle flows through addCycles/chargeMemStall with exactly one
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
Core::attachCapture(CaptureSession *session)
{
    TARTAN_ASSERT(!session || memPath->addrTranslator()->spaceBias() == 0,
                  "a capture records unbiased simulated addresses");
    capture = session;
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
Core::chargeMemStall(Cycles stall, const StallComponents &comp)
{
    heartbeat();  // same liveness tick as addCycles
    KernelCounters &k = kernelData[kernelId];
    [[maybe_unused]] Cycles charged = 0;
    splitStall(comp, stall, [&](CpiCat cat, Cycles share) {
        cpiTotal[cat] += share;
        k.cpi[cat] += share;
        charged += share;
    });
    TARTAN_DCHECK(charged == stall,
                  "CPI stall split (%llu) must sum to the stall (%llu)",
                  static_cast<unsigned long long>(charged),
                  static_cast<unsigned long long>(stall));
    totalMemStall += stall;
    k.memStallCycles += stall;
    // One cycle advance (not one per category): trace epoch sampling
    // observes the same tick sequence as the pre-accounting model.
    totalCycles += stall;
    k.cycles += stall;
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
Core::exec(std::uint64_t ops)
{
    if (capture)
        capture->exec(ops);
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

void
Core::stallComponents(const AccessResult &res, StallComponents &comp) const
{
    const MemPathParams &mp = memPath->params();
    const Cycles l1_lat = mp.l1.latency;
    if (res.latency <= l1_lat)
        return;
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
    Cycles l1 = 0, l2 = 0, l3 = 0, dram = 0;
    switch (res.level) {
      case MemLevel::L1:
        // Only a tagged component can push an L1 hit beyond the L1
        // latency; any untagged remainder is charged to the L1 itself.
        l1 = rest;
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
    // In kStallCats order.
    const Cycles add[kNumStallCats] = {l1, l2, l3, dram, late, fault, coher};
    for (std::size_t i = 0; i < kNumStallCats; ++i)
        comp.slot[i] += add[i];
    comp.total += beyond;
}

std::span<const Addr>
Core::translateLanes(std::span<const Addr> lanes)
{
    AddrMap &map = *memPath->addrTranslator();
    simScratch.resize(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
        simScratch[i] = map.translate(lanes[i]);
    return simScratch;
}

void
Core::load(Addr addr, PcId pc, MemDep dep, std::uint32_t size)
{
    const Addr sim = memPath->addrTranslator()->translate(addr);
    if (capture)
        capture->load(addr, sim, pc, std::uint8_t(dep), size);
    loadAt(addr, sim, pc, dep, size);
}

void
Core::loadAt(Addr host, Addr sim, PcId pc, MemDep dep, std::uint32_t size)
{
    addInstructions(1);
    auto res = memPath->accessAt(host, sim, AccessType::Load, size, pc,
                                 totalCycles);
    const Cycles s = loadStall(res, dep);
    if (s) {
        StallComponents comp;
        stallComponents(res, comp);
        chargeMemStall(s, comp);
    }
}

void
Core::store(Addr addr, PcId pc, std::uint32_t size)
{
    const Addr sim = memPath->addrTranslator()->translate(addr);
    if (capture)
        capture->store(addr, sim, pc, size);
    storeAt(addr, sim, pc, size);
}

void
Core::storeAt(Addr host, Addr sim, PcId pc, std::uint32_t size)
{
    addInstructions(1);
    // Stores retire through the write buffer; cache state is still
    // updated so that later loads and traffic statistics are correct.
    memPath->accessAt(host, sim, AccessType::Store, size, pc, totalCycles);
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
    const std::span<const Addr> sim = translateLanes(lanes);
    if (capture)
        capture->deviceLoadLanes(lanes, sim, pc, device_cycles,
                                 std::uint8_t(device_cat));
    deviceLoadLanesAt(lanes, sim, pc, device_cycles, device_cat);
}

void
Core::deviceLoadLanesAt(std::span<const Addr> host,
                        std::span<const Addr> sim, PcId pc,
                        Cycles device_cycles, CpiCat device_cat)
{
    TARTAN_DCHECK(host.size() == sim.size(), "one simulated address per lane");
    if (device_cycles)
        addCycles(device_cycles, device_cat);
    // The accelerator streams the lanes through the same bandwidth-
    // bound overlap window as the core's OoO engine. Per-category
    // components aggregate across lanes first; the compressed stall is
    // then split over the aggregate, so the attribution is independent
    // of lane order within a batch.
    StallComponents comp;
    for (std::size_t i = 0; i < host.size(); ++i) {
        auto res = memPath->accessAt(host[i], sim[i], AccessType::Load, 4,
                                     pc, totalCycles);
        stallComponents(res, comp);
    }
    const std::uint32_t overlap = config.missOverlap;
    const Cycles stall = (comp.total + overlap - 1) / overlap;
    if (stall)
        chargeMemStall(stall, comp);
}

void
Core::vecLoadLanes(std::span<const Addr> lanes, PcId pc, Cycles ag_latency,
                   std::uint32_t lane_size, CpiCat ag_cat)
{
    const std::span<const Addr> sim = translateLanes(lanes);
    if (capture)
        capture->vecLoadLanes(lanes, sim, pc, ag_latency, lane_size,
                              std::uint8_t(ag_cat));
    vecLoadLanesAt(lanes, sim, pc, ag_latency, lane_size, ag_cat);
}

void
Core::vecLoadLanesAt(std::span<const Addr> host, std::span<const Addr> sim,
                     PcId pc, Cycles ag_latency, std::uint32_t lane_size,
                     CpiCat ag_cat)
{
    TARTAN_DCHECK(host.size() == sim.size(), "one simulated address per lane");
    addInstructions(1);
    if (ag_latency)
        addCycles(ag_latency, ag_cat);
    // Scattered lanes contend for the L1 ports.
    addCycles((host.size() + 3) / 4, CpiCat::L1);
    // Lanes issue concurrently but remain bandwidth-bound: the stall is
    // the aggregate beyond-L1 latency through the same miss-overlap
    // window a scalar stream enjoys, floored by the slowest lane.
    Cycles worst = 0;
    StallComponents comp;
    for (std::size_t i = 0; i < host.size(); ++i) {
        auto res = memPath->accessAt(host[i], sim[i], AccessType::Load,
                                     lane_size, pc, totalCycles);
        worst = std::max(worst, loadStall(res, MemDep::Independent));
        stallComponents(res, comp);
    }
    const Cycles stall = std::max(
        worst, (comp.total + config.missOverlap - 1) / config.missOverlap);
    if (stall)
        chargeMemStall(stall, comp);
}

void
Core::vecLoadContiguous(Addr base, std::uint32_t bytes, PcId pc)
{
    const SpanImage sim =
        memPath->addrTranslator()->translateSpan(base, bytes, simScratch);
    if (capture)
        capture->vecLoadContiguous(base, bytes, pc, sim);
    vecLoadContiguousAt(base, bytes, sim, pc);
}

void
Core::vecLoadContiguousAt(Addr base, std::uint32_t bytes,
                          const SpanImage &sim, PcId pc)
{
    addInstructions(1);
    addCycles(1, CpiCat::Issue);
    // The path walks the span line by line; the worst per-line latency
    // bounds the stall (lines issue concurrently).
    auto res = memPath->accessRangeAt(base, bytes, sim, pc, totalCycles);
    const Cycles worst = loadStall(res, MemDep::Independent);
    if (worst) {
        StallComponents comp;
        stallComponents(res, comp);
        chargeMemStall(worst, comp);
    }
}

} // namespace tartan::sim
