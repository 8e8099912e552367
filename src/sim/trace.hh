/**
 * @file
 * Time-resolved tracing: kernel/phase timelines, epoch stats sampling,
 * and per-PC miss attribution.
 *
 * A TraceSession collects three coordinated surfaces, all timestamped
 * in *simulated* cycles and gated by a single pointer null-check (the
 * same idiom as robotics::Mem), so a machine without a session attached
 * is bit-identical in timing and pays no per-event cost:
 *
 *  1. a kernel/phase timeline — Core::setKernel transitions and
 *     workload ROI markers become duration events on per-track lanes of
 *     a Chrome trace-event JSON file loadable in Perfetto or
 *     chrome://tracing (one simulated cycle is rendered as one
 *     microsecond);
 *  2. an epoch sampler — registered live counters (the component
 *     counters themselves, by reference) are snapshotted every
 *     epochCycles of simulated time; per-epoch deltas (misses per level, prefetch
 *     timeliness, IPC) become counter tracks in the trace plus a
 *     TRACE_<bench>_epochs.json document;
 *  3. a per-PC profile — MemPath attributes every demand access to its
 *     static PcId site and servicing level; a constant PcSite table
 *     names the data structure behind each site, and a top-N table is
 *     embedded in the trace file.
 *
 * Sessions are created per simulated machine (one Core per session) and
 * write their files on finalize()/destruction. BenchReporter::makeTrace
 * builds sessions from the TARTAN_TRACE environment variable so every
 * bench driver can emit traces without plumbing; workloads::Machine
 * hands an attached session the robotics site table
 * (robotics::pcSites()), so this layer never names a robotics site
 * itself. A session is owned by one run and shares nothing with other
 * sessions: the trace layer holds no process-wide state and no lock.
 */

#ifndef TARTAN_SIM_TRACE_HH
#define TARTAN_SIM_TRACE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/env.hh"
#include "sim/mmapvec.hh"
#include "sim/types.hh"

namespace tartan::sim {

/**
 * Symbolic name of one PcId load/store site.
 *
 * Instrumentation points pass compile-time PcId constants; a site names
 * one of them ("nns.kdNode") and the data structure behind it ("k-d
 * tree node (pointer chase)"), so the per-PC miss profile names
 * structures instead of raw integers. Site tables are constant data
 * (robotics::pcSites() is one), read without synchronisation.
 */
struct PcSite {
    PcId pc;                     //!< the instrumentation point's id
    std::string_view name;       //!< short site name, no '/' or '"'
    std::string_view structure;  //!< data structure behind the site
};

/** Static configuration of one trace session. */
struct TraceConfig {
    std::string dir;    //!< output directory ("" = CWD)
    std::string bench;  //!< bench name (file naming)
    std::string run;    //!< run label, e.g. "HomeBot_approx" ("" = none)
    /** Simulated cycles per stats-sampling epoch. */
    Cycles epochCycles = 100000;
};

/** One machine's trace: timeline + epoch samples + per-PC profile. */
class TraceSession
{
  public:
    explicit TraceSession(TraceConfig cfg);
    /** Finalizes (writes the files) unless finalize() already ran. */
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * Name the profile's sites from @p table, which must outlive the
     * session. A PcId the table lacks is written as "pc<N>" with an
     * empty structure.
     */
    void setSites(std::span<const PcSite> table) { sites = table; }

    /** @name Timeline (driven by Core; @p now is the core cycle). */
    ///@{
    /** Close the open kernel span (if any) and open @p name. */
    void kernelSwitch(const std::string &name, Cycles now);
    /** Open a workload ROI phase (nesting allowed). */
    void phaseBegin(const std::string &name, Cycles now);
    /** Close the innermost open phase. */
    void phaseEnd(Cycles now);
    /** Mark an instantaneous event on the ROI track. */
    void instant(const std::string &name, Cycles now);
    ///@}

    /** @name Epoch sampling. */
    ///@{
    /**
     * Register a live counter to sample (by reference, so sampling
     * costs the counted component nothing). Register before the run
     * starts.
     */
    void addProbe(const std::string &name, const std::uint64_t *counter);
    /** The probe whose per-epoch delta is the IPC numerator. */
    void setInstructionProbe(const std::uint64_t *counter);
    /**
     * Take the final partial-epoch sample and stop reading every probe
     * and the instruction probe. The owner of the probed counters calls
     * this before they die (System's destructor does), because
     * finalize() may run later; the detached probes keep their columns
     * but contribute nothing after this point.
     */
    void detachProbes();
    /** Advance simulated time; samples an epoch when one elapses. */
    void
    tick(Cycles now)
    {
        lastCycle = now;
        if (now - epochStart >= config.epochCycles)
            sample(now);
    }
    ///@}

    /** Per-PC attribution of one demand access (driven by MemPath). */
    void pcAccess(PcId pc, MemLevel level, AccessType type);

    /** Chrome trace-event output path. */
    std::string tracePath() const;
    /** Epoch-samples output path (TRACE_<bench>[_<run>]_epochs.json). */
    std::string epochsPath() const;

    /** Serialize the Chrome trace document. */
    void writeTraceJson(std::ostream &os);
    /** Serialize the epoch-samples document. */
    void writeEpochsJson(std::ostream &os) const;

    /** Write both files; idempotent; reports failures via warn(). */
    bool finalize();

    const TraceConfig &params() const { return config; }
    std::size_t events() const { return spans.size() + instants.size(); }
    std::size_t epochs() const { return epochRows.size(); }

    /**
     * Build a session from $TARTAN_TRACE (interpreted as the output
     * directory). Returns null when the variable is unset or empty.
     * $TARTAN_TRACE_EPOCH overrides TraceConfig::epochCycles. The
     * environment is read through @p env, by default the process-wide
     * RunEnv snapshot (parsed once at first use), never through live
     * getenv probes; tests pass a freshly parsed RunEnv.
     */
    static std::unique_ptr<TraceSession>
    fromEnv(const std::string &bench, const std::string &run,
            const RunEnv &env = RunEnv::get());

  private:
    /**
     * Event names are stored in fixed-size buffers and the event
     * vectors are reserved generously up front, so the recording hot
     * path never allocates. Results never depend on it: workloads
     * simulate in the deterministic address space (sim/addrmap), where
     * host heap layout moves no simulated address.
     */
    static constexpr std::size_t kNameBytes = 48;
    static constexpr std::size_t kMaxProbes = 32;
    static constexpr std::size_t kMaxPhaseDepth = 16;
    static constexpr std::size_t kMaxPcSites = 256;
    /** Rows of the per-PC top-N miss table. */
    static constexpr std::size_t kPcTopN = 10;

    struct Span {
        char name[kNameBytes];
        const char *cat;     //!< "kernel" or "roi" (static storage)
        std::uint32_t tid;   //!< trace track
        Cycles begin = 0;
        Cycles end = 0;
    };

    struct Instant {
        char name[kNameBytes];
        Cycles at = 0;
    };

    struct Probe {
        char name[kNameBytes];
        const std::uint64_t *counter;  //!< null once detached
        std::uint64_t last = 0;
    };

    struct EpochRow {
        Cycles begin = 0;
        Cycles end = 0;
        double ipc = 0.0;
        std::uint64_t deltas[kMaxProbes] = {};  //!< parallel to probes
    };

    struct OpenPhase {
        char name[kNameBytes];
        Cycles since = 0;
    };

    struct PcCounters {
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        /** Accesses serviced per level (indexed by MemLevel). */
        std::uint64_t byLevel[std::size_t(MemLevel::NumLevels)] = {};

        std::uint64_t accesses() const { return loads + stores; }
        /** Demand accesses that missed the L1. */
        std::uint64_t
        missesBeyondL1() const
        {
            return byLevel[1] + byLevel[2] + byLevel[3];
        }
    };

    void sample(Cycles now);
    /** Sample the partial epoch ending at @p now, if any probe exists. */
    void flushEpoch(Cycles now);
    void closeOpen(Cycles now);
    std::string filePath(const std::string &suffix) const;
    /** Top-N (pc, counters) rows ordered by misses beyond L1. */
    std::vector<std::pair<PcId, const PcCounters *>> topSites() const;
    bool
    writeFileChecked(const std::string &path,
                     const std::function<void(std::ostream &)> &emit);

    TraceConfig config;
    std::span<const PcSite> sites;

    // Timeline state.
    MmapVec<Span> spans;
    MmapVec<Instant> instants;
    char openKernel[kNameBytes] = {};
    Cycles openKernelSince = 0;
    bool kernelOpen = false;
    OpenPhase phaseStack[kMaxPhaseDepth];
    std::size_t phaseDepth = 0;
    Cycles lastCycle = 0;

    // Epoch state.
    Probe probes[kMaxProbes];
    std::size_t probeCount = 0;
    const std::uint64_t *instrProbe = nullptr;  //!< null once detached
    std::uint64_t instrLast = 0;
    bool ipcColumn = false;  //!< an instruction probe was ever set
    Cycles epochStart = 0;
    MmapVec<EpochRow> epochRows;

    // Per-PC state (direct-indexed by PcId; sites above the cap share
    // the last slot, which named sites never reach).
    PcCounters pcCounts[kMaxPcSites];
    bool pcSeen[kMaxPcSites] = {};

    bool finalized = false;
};

/**
 * Validate a Chrome trace-event document emitted by TraceSession:
 * object with a traceEvents array of well-formed events (ph/ts, dur on
 * complete events, numeric args on counter events) and a pcProfile
 * array of named numeric rows. Returns false with a diagnostic in
 * @p err (when non-null) on any deviation.
 */
bool validateTraceJson(std::string_view text, std::string *err = nullptr);

/** Validate a TRACE_*_epochs.json document emitted by TraceSession. */
bool validateEpochsJson(std::string_view text, std::string *err = nullptr);

} // namespace tartan::sim

#endif // TARTAN_SIM_TRACE_HH
