/**
 * @file
 * Replay half of the capture-once / replay-many engine.
 *
 * replayTrace() streams a captured Core-boundary op stream (see
 * sim/capture.hh) through a fresh Machine built from an arbitrary
 * timing configuration and produces the same RunResult a direct robot
 * run under that configuration would — byte-identical counters, CPI
 * stacks and metrics — without executing any robot code. A sweep of N
 * configurations over one (robot, seed) thus costs one robot execution
 * plus N cheap replays.
 *
 * The soundness argument: deterministic addressing makes every
 * cache/prefetcher/FCP decision a pure function of the op *sequence*,
 * so a capture translates each address once, while recording, and
 * stores the simulated address next to the host one. Replay translates
 * nothing: it hands the recorded simulated address, plus the space bias
 * of the core it drives, to the caches, and the host address only to
 * the write-through and no-allocate range checks, which are host
 * ranges; its AddrMaps stay empty. Line boundaries depend on the line
 * size, a timing knob, so a contiguous span is recorded as addresses,
 * never as lines, and re-walked at the replay machine's line size. All
 * timing is recomputed by the replay machine, and the only
 * config-dependent op *arguments* (the NPU's stall amounts) are
 * captured as semantic events and re-expanded against the replay-side
 * NpuConfig. The wall clock is recomputed the same way: each captured
 * stage, serial, overlap and discount marker becomes the matching call
 * into the stream's own Pipeline, the class the robot drove when it
 * was captured. The stream key (streamConfigHash(), workloads/cellcodec)
 * marks the boundary of that argument: knobs that change the op
 * sequence itself (vector lanes, tier, scale, seed, NPU presence, ...)
 * are in it and must match the capture; knobs that only change timing
 * (cache geometry, prefetcher, FCP, issue width, NPU sizing) are not
 * and may differ freely.
 * capture() records a stream under that key.
 */

#ifndef TARTAN_WORKLOADS_REPLAY_HH
#define TARTAN_WORKLOADS_REPLAY_HH

#include "sim/capture.hh"
#include "sim/uncore.hh"
#include "workloads/common.hh"
#include "workloads/robots.hh"

namespace tartan::workloads {

/** End-of-run snapshot of a fleet machine's shared-fabric counters. */
struct FleetUncoreSnapshot {
    tartan::sim::CoherenceStats coherence;
    tartan::sim::XbarStats xbar;
    tartan::sim::MemCtrlStats memctrl;

    bool operator==(const FleetUncoreSnapshot &) const = default;
};

/** True when @p opt wires a trace, fault or capture hook. */
bool hasHooks(const WorkloadOptions &opt);

/** A captured op stream and the result of the run that recorded it. */
struct CapturedRun {
    tartan::sim::CaptureTrace trace;
    RunResult result;
};

/**
 * Run @p run once under (@p spec, @p opt) with a capture session keyed
 * by streamConfigHash(@p robot, @p spec, @p opt), and append the run's
 * functional outputs (robot name, metrics) that replay cannot
 * recompute. @p opt must carry no hook (panics otherwise): replay
 * re-raises no trace or fault event. Counts one capture in
 * captureStats().
 */
CapturedRun capture(std::string_view robot, RobotFn run,
                    const MachineSpec &spec, const WorkloadOptions &opt);

/**
 * Re-issue @p trace against a fresh Machine built from (@p spec,
 * @p opt) and return the reconstructed RunResult. The drain loop ticks
 * the watchdog heartbeat once per record, so a replayed cell under a
 * TARTAN_TIMEOUT campaign stays live-monitored exactly like a direct
 * run (replay issues no robot code, hence no cycle-sink heartbeats of
 * its own between memory ops). @p opt must carry no hook (panics
 * otherwise). Counts one replay in captureStats().
 */
RunResult replayTrace(const tartan::sim::CaptureTrace &trace,
                      const MachineSpec &spec,
                      const WorkloadOptions &opt);

/**
 * Incremental replay of one captured op stream against one core of a
 * (possibly multi-core) Machine. replayTrace() is the single-stream
 * convenience wrapper; a fleet run holds one stream per core and picks
 * the stream to step by clock, so contention in the shared L3 /
 * crossbar / DRAM banks is resolved in (approximate) global time
 * order. nextStaysPrivate() tells the fleet which records need no
 * place in that order.
 */
class ReplayStream
{
  public:
    /** Bind @p trace to core @p core_idx of @p machine. */
    ReplayStream(const tartan::sim::CaptureTrace &trace, Machine &machine,
                 std::size_t core_idx = 0);

    /** True once every record has been replayed. */
    bool done() const { return next >= traceRef.records.size(); }

    /** Replay the next record (must not be done()). */
    void step();

    /**
     * True when the next record (must not be done()) provably touches
     * only the bound core's own state: its clock, CPI stack, pipeline
     * and private L1/L2. Every non-memory record
     * except the NPU's qualifies, and a Load or Store when
     * MemPath::staysPrivate() proves it; the ranged and lane loads
     * never do. False is always safe.
     */
    bool nextStaysPrivate() const;

    /** The bound core's current cycle count (interleave key). */
    tartan::sim::Cycles cycles() const;

    /** Summarize the bound core into a RunResult. Call once, after done(). */
    RunResult finalize();

  private:
    /**
     * Copy @p host host addresses, then @p sim simulated ones, from aux
     * offset @p off into `addrs`, adding the space bias to the
     * simulated ones. Lane payloads are both halves; span grains are
     * simulated only.
     */
    std::span<const tartan::sim::Addr>
    auxAddrs(std::uint64_t off, std::uint32_t host, std::uint32_t sim);

    const tartan::sim::CaptureTrace &traceRef;
    Machine &machineRef;
    std::size_t coreIdx;
    /**
     * The bound core's space bias (read once from its AddrMap), added to
     * every captured simulated address.
     */
    tartan::sim::Addr bias;
    std::size_t next = 0;
    Pipeline pipeline;  //!< the run's wall clock, driven by the markers
    std::vector<tartan::sim::Addr> addrs;    //!< reused aux scratch
    std::vector<std::uint32_t> layers;       //!< reused aux scratch
    std::vector<std::uint64_t> ids;          //!< reused aux scratch
    RunResult result;
};

/**
 * Replay @p traces as a robot fleet: one core per trace on a single
 * coherent machine built from @p spec (simCores is forced to the fleet
 * size). Shared-hierarchy transactions run in (clock, core) order, so
 * the robots contend for the shared L3, crossbar and DRAM banks in
 * global time order; between them, each core runs ahead through the
 * records nextStaysPrivate() proves private. That is exact: cores own
 * disjoint simulated spaces, so a private record commutes with every
 * other core's records, and the result equals stepping the min-clock
 * stream one record at a time. Returns one RunResult per trace,
 * index-aligned. Results are deterministic: the order is a pure
 * function of the traces and the configuration. When
 * @p uncore is non-null it receives the shared fabric's end-of-run
 * counters (coherence, crossbar, memory controller). As for
 * replayTrace(), @p opt must carry no hook and each trace counts as
 * one replay in captureStats().
 */
std::vector<RunResult>
replayFleet(const std::vector<const tartan::sim::CaptureTrace *> &traces,
            const MachineSpec &spec, const WorkloadOptions &opt,
            FleetUncoreSnapshot *uncore = nullptr);

} // namespace tartan::workloads

#endif // TARTAN_WORKLOADS_REPLAY_HH
