/**
 * @file
 * Replay drain loop: captured op stream -> fresh Machine -> RunResult.
 * ReplayStream is the per-core incremental form; replayTrace() drains
 * one stream on a single-core machine, replayFleet() interleaves one
 * stream per core of a coherent multi-core machine.
 */

#include "workloads/replay.hh"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/watchdog.hh"
#include "workloads/cellcodec.hh"

namespace tartan::workloads {

using tartan::sim::AccessType;
using tartan::sim::Addr;
using tartan::sim::AddrMap;
using tartan::sim::CapOp;
using tartan::sim::CapRecord;
using tartan::sim::CaptureTrace;
using tartan::sim::CpiCat;
using tartan::sim::Cycles;
using tartan::sim::MemDep;
using tartan::sim::PcId;

bool
hasHooks(const WorkloadOptions &opt)
{
    return opt.trace || opt.faults || opt.capture;
}

CapturedRun
capture(std::string_view robot, RobotFn run, const MachineSpec &spec,
        const WorkloadOptions &opt)
{
    TARTAN_ASSERT(!hasHooks(opt), "capture of %.*s with a hook replay "
                  "cannot honour", int(robot.size()), robot.data());
    tartan::sim::CaptureSession session(
        streamConfigHash(robot, spec, opt), opt.seed);
    WorkloadOptions copt = opt;
    copt.capture = &session;
    CapturedRun out;
    out.result = run(spec, copt);
    session.setRobot(out.result.robot);
    for (const auto &[name, value] : out.result.metrics)
        session.addMetric(name, value);
    ++tartan::sim::captureStats().captures;
    out.trace = session.take();
    return out;
}

ReplayStream::ReplayStream(const CaptureTrace &trace, Machine &machine,
                           std::size_t core_idx)
    : traceRef(trace),
      machineRef(machine),
      coreIdx(core_idx),
      bias(machine.system().mem(core_idx).addrTranslator()->spaceBias()),
      pipeline(machine.core(core_idx))
{
}

std::span<const Addr>
ReplayStream::auxAddrs(std::uint64_t off, std::uint32_t host,
                       std::uint32_t sim)
{
    traceRef.auxU64s(off, host + sim, addrs);
    for (std::size_t i = host; i < addrs.size(); ++i)
        addrs[i] += bias;
    return addrs;
}

Cycles
ReplayStream::cycles() const
{
    return machineRef.core(coreIdx).cycles();
}

void
ReplayStream::step()
{
    tartan::sim::Core &core = machineRef.core(coreIdx);
    tartan::sim::MemPath &mem = machineRef.system().mem(coreIdx);
    const CapRecord &r = traceRef.records[next++];

    // The replay worker is its own campaign cell: keep its watchdog
    // beating even through stretches of non-cycle-sink records.
    tartan::sim::heartbeat();
    switch (CapOp(r.op)) {
      case CapOp::RegisterKernel:
        core.registerKernel(std::string(traceRef.auxString(r.d, r.a32)));
        break;
      case CapOp::SetKernel:
        core.setKernel(r.a32);
        break;
      case CapOp::Exec:
        core.exec(r.b);
        break;
      case CapOp::Stall:
        core.stall(r.b, CpiCat(r.a8));
        break;
      case CapOp::CountInstructions:
        core.countInstructions(r.b);
        break;
      case CapOp::Load:
        core.loadAt(r.b, r.d + bias, PcId(r.c), MemDep(r.a8), r.a32);
        break;
      case CapOp::Store:
        core.storeAt(r.b, r.d + bias, PcId(r.c), r.a32);
        break;
      case CapOp::VecOp:
        core.vecOp(r.b);
        break;
      case CapOp::DeviceLoadLanes: {
        const std::span<const Addr> both = auxAddrs(r.d, r.a32, r.a32);
        core.deviceLoadLanesAt(both.first(r.a32), both.subspan(r.a32),
                               PcId(r.b), r.c, CpiCat(r.a8));
        break;
      }
      case CapOp::VecLoadLanes: {
        const std::span<const Addr> both = auxAddrs(r.d, r.a32, r.a32);
        core.vecLoadLanesAt(both.first(r.a32), both.subspan(r.a32),
                            PcId(r.b), r.c, r.a16, CpiCat(r.a8));
        break;
      }
      case CapOp::VecLoadContiguous:
        if (r.a8 == tartan::sim::kSpanPerGrain) {
            const std::uint32_t grains =
                std::uint32_t(AddrMap::grainsSpanned(r.b, r.a32));
            core.vecLoadContiguousAt(r.b, r.a32,
                                     {0, auxAddrs(r.d, 0, grains)},
                                     PcId(r.c));
        } else {
            core.vecLoadContiguousAt(r.b, r.a32, {r.d + bias, {}},
                                     PcId(r.c));
        }
        break;
      case CapOp::MapSegment:
        // The recorded simulated addresses already carry the map.
        break;
      case CapOp::WriteThroughRange:
        mem.addWriteThroughRange(r.b, r.c);
        break;
      case CapOp::NoAllocateRange:
        mem.addNoAllocateRange(r.b, r.c);
        break;
      case CapOp::StageBegin:
        pipeline.stageBegin(r.a32);
        break;
      case CapOp::ItemBegin:
        pipeline.itemBegin();
        break;
      case CapOp::ItemEnd:
        pipeline.itemEnd();
        break;
      case CapOp::StageEnd:
        pipeline.stageEnd();
        break;
      case CapOp::SerialBegin:
        pipeline.serialBegin();
        break;
      case CapOp::SerialEnd:
        pipeline.serialEnd();
        break;
      case CapOp::NpuConfigure:
        if (machineRef.npu())
            machineRef.npu()->chargeConfigure(core, r.b);
        break;
      case CapOp::NpuInfer:
        if (machineRef.npu()) {
            traceRef.auxU64s(r.d, r.a32, layers);
            machineRef.npu()->chargeInfer(core, r.b, r.c, layers);
        }
        break;
      case CapOp::Metric: {
        double value = 0.0;
        std::memcpy(&value, &r.b, 8);
        result.metrics[std::string(traceRef.auxString(r.d, r.a32))] =
            value;
        break;
      }
      case CapOp::RobotName:
        result.robot = std::string(traceRef.auxString(r.d, r.a32));
        break;
      case CapOp::OverlapBegin:
        pipeline.overlapBegin();
        break;
      case CapOp::OverlapEnd:
        pipeline.overlapEnd();
        break;
      case CapOp::Discount:
        if (r.a8 == 0) {
            pipeline.discountOverlap(r.b);
        } else {
            traceRef.auxU64s(r.d, r.a32, ids);
            pipeline.discountKernels(ids, r.b);
        }
        break;
      default:
        break;
    }
}

RunResult
ReplayStream::finalize()
{
    summarize(machineRef, pipeline, result, coreIdx);
    return std::move(result);
}

bool
ReplayStream::nextStaysPrivate() const
{
    const CapRecord &r = traceRef.records[next];
    tartan::sim::MemPath &mem = machineRef.system().mem(coreIdx);
    // No default: a new op must state whether it is private.
    switch (CapOp(r.op)) {
      case CapOp::Load:
        return mem.staysPrivate(r.b, r.d + bias, AccessType::Load);
      case CapOp::Store:
        return mem.staysPrivate(r.b, r.d + bias, AccessType::Store);
      case CapOp::DeviceLoadLanes:
      case CapOp::VecLoadLanes:
      case CapOp::VecLoadContiguous:
      case CapOp::NpuConfigure:
      case CapOp::NpuInfer:
      case CapOp::NumOps:
        return false;
      case CapOp::RegisterKernel:
      case CapOp::SetKernel:
      case CapOp::Exec:
      case CapOp::Stall:
      case CapOp::CountInstructions:
      case CapOp::VecOp:
      case CapOp::MapSegment:
      case CapOp::WriteThroughRange:
      case CapOp::NoAllocateRange:
      case CapOp::StageBegin:
      case CapOp::ItemBegin:
      case CapOp::ItemEnd:
      case CapOp::StageEnd:
      case CapOp::SerialBegin:
      case CapOp::SerialEnd:
      case CapOp::Metric:
      case CapOp::RobotName:
      case CapOp::OverlapBegin:
      case CapOp::OverlapEnd:
      case CapOp::Discount:
        return true;
    }
    return false;
}

RunResult
replayTrace(const CaptureTrace &trace, const MachineSpec &spec,
            const WorkloadOptions &opt)
{
    TARTAN_ASSERT(!hasHooks(opt), "replay with a hook it cannot honour");
    ++tartan::sim::captureStats().replays;

    Machine machine(spec, opt);
    ReplayStream stream(trace, machine);
    while (!stream.done())
        stream.step();
    return stream.finalize();
}

std::vector<RunResult>
replayFleet(const std::vector<const CaptureTrace *> &traces,
            const MachineSpec &spec, const WorkloadOptions &opt,
            FleetUncoreSnapshot *uncore)
{
    TARTAN_ASSERT(!hasHooks(opt), "replay with a hook it cannot honour");
    tartan::sim::captureStats().replays += traces.size();

    MachineSpec fspec = spec;
    fspec.sys.simCores = std::uint32_t(traces.size());

    Machine machine(fspec, opt);
    std::vector<std::unique_ptr<ReplayStream>> streams;
    streams.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        streams.push_back(
            std::make_unique<ReplayStream>(*traces[i], machine, i));

    // Min-cycle-first: step the stream whose core clock is furthest
    // behind (ties toward the lower core index), then let it run ahead
    // through every record that provably stays in its own core. A
    // stream parked at a record that may touch the shared L3, crossbar
    // or DRAM banks thus runs it only once it is the (clock, core)
    // minimum, exactly as if every stream were stepped one record at a
    // time: stepping a core never moves another core's clock, and a
    // private record commutes with every other core's records because
    // the cores' simulated spaces are disjoint.
    [[maybe_unused]] const auto other_clocks = [&](std::size_t b) {
        Cycles sum = 0;
        for (std::size_t i = 0; i < streams.size(); ++i)
            sum += i == b ? 0 : streams[i]->cycles();
        return sum;
    };
    for (;;) {
        std::size_t b = streams.size();
        for (std::size_t i = 0; i < streams.size(); ++i)
            if (!streams[i]->done() &&
                (b == streams.size() ||
                 streams[i]->cycles() < streams[b]->cycles()))
                b = i;
        if (b == streams.size())
            break;
        ReplayStream &s = *streams[b];
        do {
#ifndef NDEBUG
            const Cycles before = other_clocks(b);
#endif
            s.step();
            // Clocks only grow, so an unchanged sum is unchanged clocks.
            TARTAN_DCHECK(other_clocks(b) == before,
                          "stepping core %zu moved another core's clock",
                          b);
        } while (!s.done() && s.nextStaysPrivate());
    }

    std::vector<RunResult> results;
    results.reserve(streams.size());
    for (auto &s : streams)
        results.push_back(s->finalize());

    // Disjoint spaces mean no core ever holds another core's line, so
    // no coherence action can fire; that is what lets private records
    // run ahead. A fleet mode with true sharing must restrict run-ahead
    // (a private hit can then race a remote store) before it lands.
    if (const tartan::sim::Uncore *u = machine.system().uncore())
        TARTAN_ASSERT(u->coherence() == tartan::sim::CoherenceStats{},
                      "fleet cores shared a line: run-ahead is unsound");

    if (uncore) {
        if (tartan::sim::Uncore *u = machine.system().uncore()) {
            uncore->coherence = u->coherence();
            uncore->xbar = u->xbar();
            uncore->memctrl = u->memctrl();
        } else {
            *uncore = FleetUncoreSnapshot{};
        }
    }
    return results;
}

} // namespace tartan::workloads
