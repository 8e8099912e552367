/**
 * @file
 * Single-layer loops: captured op stream -> one simulator layer.
 */

#include "drilldown.hh"

#include <memory>

#include "core/anl.hh"
#include "sim/addrmap.hh"
#include "sim/cache.hh"
#include "sim/memsystem.hh"
#include "sim/system.hh"
#include "spans.hh"

namespace tartan::perfbench {

using tartan::sim::AccessType;
using tartan::sim::Addr;
using tartan::sim::CapOp;
using tartan::sim::CapRecord;
using tartan::sim::CaptureTrace;
using tartan::sim::Cycles;
using tartan::sim::PcId;

bool
hasPrefetcher(const workloads::MachineSpec &spec)
{
    return spec.useAnl ||
           spec.sys.prefetcher != tartan::sim::PrefetcherKind::None;
}

double
translateStream(const CaptureTrace &trace, std::uint32_t line_bytes,
                Addr space_bias, std::vector<SimAccess> &out,
                std::uint64_t *translates)
{
    out.clear();
    out.reserve(trace.records.size());
    std::vector<std::uint64_t> lanes;
    tartan::sim::AddrMap map;
    if (space_bias)
        map.setSpaceBias(space_bias);
    const Addr line_mask = ~Addr(line_bytes - 1);
    std::uint64_t n = 0;

    const std::int64_t t0 = nowNs();
    for (const CapRecord &r : trace.records) {
        switch (CapOp(r.op)) {
          case CapOp::MapSegment:
            map.addSegment(r.b, r.c);
            break;
          case CapOp::Load:
          case CapOp::Store:
            out.push_back({map.translate(r.b), r.a32,
                           CapOp(r.op) == CapOp::Store});
            ++n;
            break;
          case CapOp::DeviceLoadLanes:
          case CapOp::VecLoadLanes: {
            const std::uint32_t size =
                CapOp(r.op) == CapOp::DeviceLoadLanes ? 4 : r.a16;
            trace.auxU64s(r.d, r.a32, lanes);
            for (std::uint64_t lane : lanes)
                out.push_back({map.translate(lane), size, false});
            n += lanes.size();
            break;
          }
          case CapOp::VecLoadContiguous: {
            // MemPath::accessRange: walk the span per translation grain
            // and access each distinct simulated line once.
            const Addr first =
                r.b & ~Addr(tartan::sim::AddrMap::kGrainBytes - 1);
            const Addr end = r.b + (r.a32 ? r.a32 : 1);
            Addr prev = ~Addr(0);
            for (Addr a = first; a < end;
                 a += tartan::sim::AddrMap::kGrainBytes) {
                const Addr line = map.translate(a) & line_mask;
                ++n;
                if (line == prev)
                    continue;
                prev = line;
                out.push_back({line, line_bytes, false});
            }
            break;
          }
          default:
            break;
        }
    }
    const std::int64_t t1 = nowNs();
    *translates = n;
    return double(t1 - t0) * 1e-9;
}

double
l1Stream(const std::vector<SimAccess> &stream,
         const tartan::sim::SysConfig &sys, std::uint64_t *accesses,
         std::uint64_t *misses)
{
    tartan::sim::CacheParams p;
    p.name = "l1d";
    p.sizeBytes = sys.l1Size;
    p.assoc = sys.l1Assoc;
    p.lineBytes = sys.lineBytes;
    p.latency = sys.l1Latency;
    p.trackUdm = sys.trackUdm;
    tartan::sim::Cache l1(p);

    Cycles now = 0;
    const std::int64_t t0 = nowNs();
    for (const SimAccess &a : stream) {
        const AccessType type =
            a.store ? AccessType::Store : AccessType::Load;
        if (!l1.access(a.addr, type, a.size, now).hit)
            l1.fill(a.addr, false, a.store);
        ++now;
    }
    const std::int64_t t1 = nowNs();
    *accesses = l1.stats().accesses();
    *misses = l1.stats().misses;
    return double(t1 - t0) * 1e-9;
}

double
pathStream(const CaptureTrace &trace, const workloads::MachineSpec &spec,
           bool with_prefetcher, Addr space_bias, PathCounts *counts)
{
    tartan::sim::SysConfig cfg = spec.sys;
    cfg.simCores = 1;
    cfg.trace = nullptr;
    cfg.faults = nullptr;
    if (!with_prefetcher)
        cfg.prefetcher = tartan::sim::PrefetcherKind::None;
    tartan::sim::System sys(cfg);
    tartan::sim::MemPath &mem = sys.mem();
    // Same wiring as workloads::Machine: deterministic addressing, the
    // fleet core's space bias, and ANL when the machine has it.
    mem.enableDeterministicAddressing();
    if (space_bias)
        mem.addrTranslator()->setSpaceBias(space_bias);
    if (with_prefetcher && spec.useAnl) {
        core::AnlConfig anl = spec.anlCfg;
        anl.lineBytes = cfg.lineBytes;
        mem.setPrefetcher(std::make_unique<core::AnlPrefetcher>(anl));
    }

    std::vector<Addr> lanes;
    // A stand-in for the core clock: advances with every observed
    // latency. Only prefetch timeliness (timely vs late) reads it; no
    // hit/miss decision does.
    Cycles now = 0;
    const std::int64_t t0 = nowNs();
    for (const CapRecord &r : trace.records) {
        switch (CapOp(r.op)) {
          case CapOp::MapSegment:
            mem.mapSegment(r.b, r.c);
            break;
          case CapOp::WriteThroughRange:
            mem.addWriteThroughRange(r.b, r.c);
            break;
          case CapOp::NoAllocateRange:
            mem.addNoAllocateRange(r.b, r.c);
            break;
          case CapOp::Exec:
          case CapOp::Stall:
            now += r.b;
            break;
          case CapOp::Load:
            now += mem.access(r.b, AccessType::Load, r.a32, PcId(r.c),
                              now)
                       .latency;
            break;
          case CapOp::Store:
            mem.access(r.b, AccessType::Store, r.a32, PcId(r.c), now);
            ++now;
            break;
          case CapOp::DeviceLoadLanes:
          case CapOp::VecLoadLanes: {
            const std::uint32_t size =
                CapOp(r.op) == CapOp::DeviceLoadLanes ? 4 : r.a16;
            trace.auxU64s(r.d, r.a32, lanes);
            for (Addr lane : lanes)
                now += mem.access(lane, AccessType::Load, size, PcId(r.b),
                                  now)
                           .latency;
            break;
          }
          case CapOp::VecLoadContiguous:
            now += mem.accessRange(r.b, r.a32, PcId(r.c), now).latency;
            break;
          default:
            break;
        }
    }
    const std::int64_t t1 = nowNs();

    mem.drainDirty();
    counts->l1Accesses = mem.l1().stats().accesses();
    counts->l1Misses = mem.l1().stats().misses;
    counts->l2Accesses = mem.l2().stats().accesses();
    counts->l2Misses = mem.l2().stats().misses;
    counts->l3Traffic = mem.stats.l3Traffic();
    counts->pfIssued = mem.stats.pfIssued;
    counts->pfUseful = mem.stats.pfHitsTimely + mem.stats.pfHitsLate;
    return double(t1 - t0) * 1e-9;
}

} // namespace tartan::perfbench
