/**
 * @file
 * Capture-once / replay-many trace engine.
 *
 * PR 4's deterministic addressing made the Core-boundary op stream of a
 * robot run a pure function of the access *sequence*: host addresses
 * are translated through the AddrMap (arena segments map linearly,
 * everything else through a 16-byte-grain first-touch table), so the
 * simulated addresses — and with them every cache/prefetcher/FCP
 * decision — depend only on the order of operations, never on the
 * machine's timing configuration. A capture therefore records that
 * sequence once, at the Core's public API boundary, and a ReplayMachine
 * re-issues it against an arbitrary timing configuration without
 * touching robot code: one robot execution, N machine sweeps.
 *
 * What is captured (all POD, 32 bytes per record, lane addresses and
 * strings in a side "aux" byte stream):
 *  - every Core op (exec / stall / load / store / vector and device
 *    loads) with its *host* addresses and static arguments — never its
 *    latencies or timestamps, which replay recomputes;
 *  - MemPath address-space registrations (mapSegment, write-through and
 *    no-allocate ranges) in stream order, because the first-touch
 *    table and the host-address range checks are order-sensitive;
 *  - Pipeline stage/item/serial markers, so replay reproduces the LPT
 *    makespan wall-clock model exactly;
 *  - semantic NPU events (configure / infer with layer widths) instead
 *    of the raw stalls they expand to, because those stall amounts
 *    depend on NpuConfig — the one sweepable knob that shapes op
 *    *arguments* — and must be recomputed from the replay config;
 *  - the run's functional outputs (robot name, quality metrics), which
 *    replay cannot recompute and which are timing-independent.
 *
 * File format (`capture_<streamhash16>_<seed>.tcap`): a fixed 64-byte
 * header (magic, format version, CRC-32 of the body via checksum.hh,
 * stream key, seed, record/aux counts) followed by the record array
 * and the aux bytes. Corruption policy mirrors the result cache: a
 * truncated tail, a bit-flipped body, or a foreign-version header make
 * the file invalid as a whole and force a re-capture — a capture is a
 * cache entry, never a source of truth.
 *
 * Record buffers are MmapVecs (sim/mmapvec), which grow in place
 * instead of copying every record on each doubling. Heap placement is
 * not the reason: deterministic addressing makes a run's results
 * independent of where its buffers live. Growth is: as std::vector,
 * these buffers raised fleet4 peak RSS from 357 to 472 MB and
 * replay_sweep set-up time from 1.04 to 1.57 s (perfbench, one run
 * each, 4-core Xeon container).
 *
 * A capture is not byte-reproducible across threads, processes or ASLR,
 * because it records host addresses. Two captures of one stream differ
 * only there: the `b` field of Load, Store, VecLoadContiguous,
 * MapSegment, WriteThroughRange and NoAllocateRange records, and the
 * lane-address payloads in aux of DeviceLoadLanes and VecLoadLanes.
 * Every other field and aux byte is equal, and both replay to the same
 * result, since replay translates host addresses in first-touch order
 * (ReplayEquivalence.CapturesOnTwoThreadsDifferOnlyInHostAddresses).
 */

#ifndef TARTAN_SIM_CAPTURE_HH
#define TARTAN_SIM_CAPTURE_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "sim/mmapvec.hh"
#include "sim/types.hh"

namespace tartan::sim {

/** Bumped whenever the record layout or encoding changes. */
constexpr std::uint32_t kCaptureFormatVersion = 1;

/** Operation tags of the capture stream. */
enum class CapOp : std::uint8_t {
    RegisterKernel = 1, //!< a32=name len, d=aux off
    SetKernel,          //!< a32=kernel id
    Exec,               //!< b=ops, a8=OpClass
    Stall,              //!< b=cycles, a8=CpiCat
    CountInstructions,  //!< b=n
    Load,               //!< b=host addr, c=pc, a8=MemDep, a32=size
    Store,              //!< b=host addr, c=pc, a32=size
    VecOp,              //!< b=n
    DeviceLoadLanes,    //!< a32=lanes, d=aux off, b=pc, c=device cycles,
                        //!< a8=CpiCat
    VecLoadLanes,       //!< a32=lanes, d=aux off, b=pc, c=ag latency,
                        //!< a16=lane size, a8=CpiCat
    VecLoadContiguous,  //!< b=host base, c=pc, a32=bytes
    MapSegment,         //!< b=host base, c=bytes
    WriteThroughRange,  //!< b=host base, c=bytes
    NoAllocateRange,    //!< b=host base, c=bytes
    StageBegin,         //!< a32=threads
    ItemBegin,          //!< (no payload)
    ItemEnd,            //!< (no payload)
    StageEnd,           //!< (no payload)
    SerialBegin,        //!< (no payload)
    SerialEnd,          //!< (no payload)
    NpuConfigure,       //!< b=parameter count
    NpuInfer,           //!< b=input floats, c=output floats,
                        //!< a32=layer count, d=aux off (u64 widths)
    Metric,             //!< a32=name len, d=aux off, b=double bits
    RobotName,          //!< a32=name len, d=aux off
    OverlapBegin,       //!< (no payload)
    OverlapEnd,         //!< (no payload)
    Discount,           //!< a8=kind (0 region, 1 kernels), b=divisor,
                        //!< a32=kernel count, d=aux off (u64 ids)
    NumOps
};

/** One captured operation. POD, fixed 32 bytes, zero-padded. */
struct CapRecord {
    std::uint8_t op = 0;   //!< CapOp tag
    std::uint8_t a8 = 0;   //!< small enum argument (dep / cat / class)
    std::uint16_t a16 = 0; //!< small scalar (lane size)
    std::uint32_t a32 = 0; //!< medium scalar (sizes, counts, ids)
    std::uint64_t b = 0;   //!< wide argument 1 (addresses, counts)
    std::uint64_t c = 0;   //!< wide argument 2 (pc, byte counts)
    std::uint64_t d = 0;   //!< aux-stream byte offset
};

static_assert(sizeof(CapRecord) == 32, "capture records are 32-byte POD");

/**
 * One finished capture: the op stream, its aux bytes, and the identity
 * of the stream it records. The configHash is the stream key
 * (workloads::streamConfigHash), which content-addresses the capture
 * exactly like a cache entry; a loaded file whose hash or seed differs
 * from the expectation is a foreign capture and must be ignored.
 */
struct CaptureTrace {
    std::uint64_t configHash = 0; //!< stream key of the capture
    std::uint64_t seed = 0;       //!< workload seed
    MmapVec<CapRecord> records;   //!< op stream in record order
    MmapVec<std::uint8_t> aux;    //!< variable payloads (names, ids)

    /** A string stored at aux offset @p off with length @p len. */
    std::string_view
    auxString(std::uint64_t off, std::uint32_t len) const
    {
        return {reinterpret_cast<const char *>(aux.data()) + off, len};
    }

    /** Copy @p count u64 values stored at aux offset @p off. */
    template <typename V>
    void
    auxU64s(std::uint64_t off, std::uint32_t count, V &out) const
    {
        out.resize(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint64_t v = 0;
            std::memcpy(&v, aux.data() + off + 8 * std::uint64_t(i), 8);
            out[i] = static_cast<typename V::value_type>(v);
        }
    }

    /**
     * Write header + records + aux to @p path through
     * json::writeFileDurable (an fsynced, process-unique temp file
     * renamed into place, so a crashed save never leaves a torn file
     * under the content address and concurrent savers never collide).
     * Returns false with @p err on failure.
     */
    bool save(const std::string &path, std::string *err = nullptr) const;

    /**
     * Load and fully validate a capture file. Every failure mode —
     * unreadable file, bad magic, foreign format version, size
     * mismatch against the header's counts (truncated tail), body CRC
     * mismatch (bit rot), out-of-range op tags or aux offsets —
     * returns false; @p err stays empty when the file simply does not
     * exist and describes the corruption otherwise. An invalid file is
     * never partially trusted: the caller re-captures.
     */
    static bool load(const std::string &path, CaptureTrace &out,
                     std::string *err = nullptr);

    /** Structural validation of an in-memory trace (op/aux bounds). */
    bool validate(std::string *err = nullptr) const;
};

/**
 * The recording half: attached to a Core (and its MemPath) for one
 * robot run, it appends one record per public-API op. Record methods
 * no-op while suppressed — the NPU model suppresses raw recording
 * around its internal Core charges and emits semantic events instead.
 */
class CaptureSession
{
  public:
    CaptureSession(std::uint64_t config_hash, std::uint64_t seed)
    {
        data.configHash = config_hash;
        data.seed = seed;
    }

    /** @{ Core-boundary ops. */
    void
    registerKernel(std::string_view name)
    {
        CapRecord r = rec(CapOp::RegisterKernel);
        r.a32 = std::uint32_t(name.size());
        r.d = auxBytes(name.data(), name.size());
        push(r);
    }

    void
    setKernel(std::uint32_t id)
    {
        CapRecord r = rec(CapOp::SetKernel);
        r.a32 = id;
        push(r);
    }

    void
    exec(std::uint64_t ops, std::uint8_t cls)
    {
        CapRecord r = rec(CapOp::Exec);
        r.b = ops;
        r.a8 = cls;
        push(r);
    }

    void
    stall(Cycles cycles, std::uint8_t cat)
    {
        CapRecord r = rec(CapOp::Stall);
        r.b = cycles;
        r.a8 = cat;
        push(r);
    }

    void
    countInstructions(std::uint64_t n)
    {
        CapRecord r = rec(CapOp::CountInstructions);
        r.b = n;
        push(r);
    }

    void
    load(Addr addr, PcId pc, std::uint8_t dep, std::uint32_t size)
    {
        CapRecord r = rec(CapOp::Load);
        r.b = addr;
        r.c = pc;
        r.a8 = dep;
        r.a32 = size;
        push(r);
    }

    void
    store(Addr addr, PcId pc, std::uint32_t size)
    {
        CapRecord r = rec(CapOp::Store);
        r.b = addr;
        r.c = pc;
        r.a32 = size;
        push(r);
    }

    void
    vecOp(std::uint64_t n)
    {
        CapRecord r = rec(CapOp::VecOp);
        r.b = n;
        push(r);
    }

    void
    deviceLoadLanes(std::span<const Addr> lanes, PcId pc,
                    Cycles device_cycles, std::uint8_t cat)
    {
        CapRecord r = rec(CapOp::DeviceLoadLanes);
        r.a32 = std::uint32_t(lanes.size());
        r.d = auxBytes(lanes.data(), lanes.size_bytes());
        r.b = pc;
        r.c = device_cycles;
        r.a8 = cat;
        push(r);
    }

    void
    vecLoadLanes(std::span<const Addr> lanes, PcId pc, Cycles ag_latency,
                 std::uint32_t lane_size, std::uint8_t cat)
    {
        CapRecord r = rec(CapOp::VecLoadLanes);
        r.a32 = std::uint32_t(lanes.size());
        r.d = auxBytes(lanes.data(), lanes.size_bytes());
        r.b = pc;
        r.c = ag_latency;
        r.a16 = std::uint16_t(lane_size);
        r.a8 = cat;
        push(r);
    }

    void
    vecLoadContiguous(Addr base, std::uint32_t bytes, PcId pc)
    {
        CapRecord r = rec(CapOp::VecLoadContiguous);
        r.b = base;
        r.c = pc;
        r.a32 = bytes;
        push(r);
    }
    /** @} */

    /** @{ MemPath address-space registrations (order-sensitive). */
    void
    mapSegment(Addr base, std::uint64_t bytes)
    {
        CapRecord r = rec(CapOp::MapSegment);
        r.b = base;
        r.c = bytes;
        push(r);
    }

    void
    writeThroughRange(Addr base, std::uint64_t bytes)
    {
        CapRecord r = rec(CapOp::WriteThroughRange);
        r.b = base;
        r.c = bytes;
        push(r);
    }

    void
    noAllocateRange(Addr base, std::uint64_t bytes)
    {
        CapRecord r = rec(CapOp::NoAllocateRange);
        r.b = base;
        r.c = bytes;
        push(r);
    }
    /** @} */

    /** @{ Pipeline wall-clock markers. */
    void
    stageBegin(std::uint32_t threads)
    {
        CapRecord r = rec(CapOp::StageBegin);
        r.a32 = threads;
        push(r);
    }

    void itemBegin() { push(rec(CapOp::ItemBegin)); }
    void itemEnd() { push(rec(CapOp::ItemEnd)); }
    void stageEnd() { push(rec(CapOp::StageEnd)); }
    void serialBegin() { push(rec(CapOp::SerialBegin)); }
    void serialEnd() { push(rec(CapOp::SerialEnd)); }
    void overlapBegin() { push(rec(CapOp::OverlapBegin)); }
    void overlapEnd() { push(rec(CapOp::OverlapEnd)); }

    /**
     * Wall discount of the overlap-region accumulator: the cycles
     * bracketed by overlapBegin/overlapEnd pairs since the last
     * discountRegion() ran on parallel threads, keeping only a
     * 1/divisor wall share. Replay re-measures the regions on its own
     * clock, so the discount scales with the replay machine's timing.
     */
    void
    discountRegion(std::uint64_t divisor)
    {
        CapRecord r = rec(CapOp::Discount);
        r.a8 = 0;
        r.b = divisor;
        push(r);
    }

    /** Wall discount of the named kernels' cycle totals (same model). */
    void
    discountKernels(std::span<const std::uint64_t> kernels,
                    std::uint64_t divisor)
    {
        CapRecord r = rec(CapOp::Discount);
        r.a8 = 1;
        r.b = divisor;
        r.a32 = std::uint32_t(kernels.size());
        r.d = auxBytes(kernels.data(), kernels.size_bytes());
        push(r);
    }
    /** @} */

    /** @{ Semantic NPU events (config-dependent charges). */
    void
    npuConfigure(std::uint64_t param_count)
    {
        CapRecord r = rec(CapOp::NpuConfigure);
        r.b = param_count;
        push(r);
    }

    void
    npuInfer(std::uint64_t in_floats, std::uint64_t out_floats,
             std::span<const std::uint32_t> layers)
    {
        CapRecord r = rec(CapOp::NpuInfer);
        r.b = in_floats;
        r.c = out_floats;
        r.a32 = std::uint32_t(layers.size());
        r.d = data.aux.size();
        for (std::uint32_t w : layers) {
            const std::uint64_t wide = w;
            auxBytes(&wide, 8);
        }
        push(r);
    }
    /** @} */

    /** @{ Functional run outputs (replay cannot recompute these). */
    void
    setRobot(std::string_view name)
    {
        CapRecord r = rec(CapOp::RobotName);
        r.a32 = std::uint32_t(name.size());
        r.d = auxBytes(name.data(), name.size());
        push(r);
    }

    void
    addMetric(std::string_view name, double value)
    {
        CapRecord r = rec(CapOp::Metric);
        r.a32 = std::uint32_t(name.size());
        r.d = auxBytes(name.data(), name.size());
        std::memcpy(&r.b, &value, 8);
        push(r);
    }
    /** @} */

    /** Suppression: record methods no-op while the depth is nonzero. */
    void pushSuppress() { ++suppressDepth; }
    void popSuppress() { --suppressDepth; }
    bool suppressed() const { return suppressDepth != 0; }

    const CaptureTrace &trace() const { return data; }
    /** Move the finished trace out; the session is then spent. */
    CaptureTrace take() { return std::move(data); }

  private:
    CapRecord
    rec(CapOp op) const
    {
        CapRecord r;
        r.op = std::uint8_t(op);
        return r;
    }

    void
    push(const CapRecord &r)
    {
        if (!suppressDepth)
            data.records.push_back(r);
    }

    /** Append raw bytes to the aux stream; returns their offset. */
    std::uint64_t
    auxBytes(const void *bytes, std::size_t n)
    {
        if (suppressDepth)
            return 0;
        const std::uint64_t off = data.aux.size();
        const auto *p = static_cast<const std::uint8_t *>(bytes);
        data.aux.insert(data.aux.end(), p, p + n);
        return off;
    }

    CaptureTrace data;
    unsigned suppressDepth = 0;
};

/** RAII suppression guard (tolerates a null session). */
class CaptureSuppress
{
  public:
    explicit CaptureSuppress(CaptureSession *session) : sess(session)
    {
        if (sess)
            sess->pushSuppress();
    }
    ~CaptureSuppress()
    {
        if (sess)
            sess->popSuppress();
    }

    CaptureSuppress(const CaptureSuppress &) = delete;
    CaptureSuppress &operator=(const CaptureSuppress &) = delete;

  private:
    CaptureSession *sess;
};

/**
 * Process-wide capture accounting, surfaced in the BENCH manifest's
 * capture block: robot executions recorded, captures served from
 * TARTAN_CAPTURE_DIR files, and replays performed. The 1-execution +
 * N-replays property of a converted sweep is asserted on exactly these
 * counters.
 */
struct CaptureStats {
    std::atomic<std::uint64_t> captures{0}; //!< robot runs recorded
    std::atomic<std::uint64_t> fileHits{0}; //!< captures loaded from disk
    /** Op streams replayed: one per replayTrace(), one per replayFleet()
     *  core. */
    std::atomic<std::uint64_t> replays{0};
};

/** The process-wide capture counters. */
CaptureStats &captureStats();

} // namespace tartan::sim

#endif // TARTAN_SIM_CAPTURE_HH
