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
 * write their files on finalize()/destruction. BenchReporter::traceConfig
 * reads the TARTAN_TRACE environment variable so every bench driver can
 * emit traces without plumbing, and every attempt of a cell builds its
 * own session from that config; workloads::Machine
 * hands an attached session the robotics site table
 * (robotics::pcSites()), so this layer never names a robotics site
 * itself. A session is owned by one run and shares nothing with other
 * sessions: the trace layer holds no process-wide state and no lock.
 */

#ifndef TARTAN_SIM_TRACE_HH
#define TARTAN_SIM_TRACE_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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

    /** Chrome trace-event output path (TRACE_<bench>[_<run>].json). */
    std::string tracePath() const { return filePath(".json"); }
    /** Epoch-samples output path (TRACE_<bench>[_<run>]_epochs.json). */
    std::string epochsPath() const { return filePath("_epochs.json"); }

    /**
     * The config of one traced run from $TARTAN_TRACE (interpreted as
     * the output directory), or nullopt when the variable is unset or
     * empty. $TARTAN_TRACE_EPOCH overrides epochCycles. The environment
     * is read through @p env, by default the process-wide RunEnv
     * snapshot (parsed once at first use), never through live getenv
     * probes; tests pass a freshly parsed RunEnv.
     */
    static std::optional<TraceConfig>
    fromEnv(const std::string &bench, const std::string &run,
            const RunEnv &env = RunEnv::get());

  private:
    /** dir/TRACE_<bench>[_<run>]@p suffix. */
    std::string filePath(const std::string &suffix) const;
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
    ///@}

    /** @name Epoch sampling. */
    ///@{
    /**
     * Register a live counter to sample (by reference, so sampling
     * costs the counted component nothing). Register each name once,
     * before the first epoch sample (both asserted): a session observes
     * one System, so a retried run needs a fresh session.
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
    std::string tracePath() const { return config.tracePath(); }
    /** Epoch-samples output path. */
    std::string epochsPath() const { return config.epochsPath(); }

    /** Serialize the Chrome trace document. */
    void writeTraceJson(std::ostream &os);
    /** Serialize the epoch-samples document. */
    void writeEpochsJson(std::ostream &os) const;

    /** Write both files; idempotent; reports failures via warn(). */
    bool finalize();

    const TraceConfig &params() const { return config; }
    std::size_t events() const { return spans.size(); }
    std::size_t epochs() const { return epochRows.size(); }

  private:
    /** Rows of the per-PC top-N miss table. */
    static constexpr std::size_t kPcTopN = 10;

    /** A closed span on track @c tid: 0 = kernels, 1 = ROI phases. */
    struct Span {
        std::uint32_t name;  //!< index into names
        std::uint32_t tid;
        Cycles begin = 0;
        Cycles end = 0;
    };

    struct Probe {
        std::string name;
        const std::uint64_t *counter;  //!< null once detached
        std::uint64_t last = 0;
    };

    /** One epoch; its probe deltas live in epochDeltas. */
    struct EpochRow {
        Cycles begin = 0;
        Cycles end = 0;
        double ipc = 0.0;
    };

    struct OpenPhase {
        std::uint32_t name;  //!< index into names
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

    /** The id of @p name in the names table, adding it if new. */
    std::uint32_t intern(const std::string &name);
    /** Record [@p begin, @p end) on track @p tid unless it is empty. */
    void closeSpan(std::uint32_t name, std::uint32_t tid, Cycles begin,
                   Cycles end);
    void sample(Cycles now);
    /** Sample the partial epoch ending at @p now, if any probe exists. */
    void flushEpoch(Cycles now);
    void closeOpen(Cycles now);
    /** Top-N (pc, counters) rows ordered by misses beyond L1. */
    std::vector<std::pair<PcId, const PcCounters *>> topSites() const;

    TraceConfig config;
    std::span<const PcSite> sites;

    // Timeline state.
    std::vector<std::string> names;
    std::unordered_map<std::string, std::uint32_t> nameIds;
    MmapVec<Span> spans;
    std::uint32_t openKernel = 0;  //!< valid while kernelOpen
    Cycles openKernelSince = 0;
    bool kernelOpen = false;
    std::vector<OpenPhase> phases;
    Cycles lastCycle = 0;

    // Epoch state.
    std::vector<Probe> probes;
    const std::uint64_t *instrProbe = nullptr;  //!< null once detached
    std::uint64_t instrLast = 0;
    bool ipcColumn = false;  //!< an instruction probe was ever set
    Cycles epochStart = 0;
    MmapVec<EpochRow> epochRows;
    /** Row-major probe deltas: probes.size() per epoch row. */
    MmapVec<std::uint64_t> epochDeltas;

    /** Per-PC state, indexed by PcId; a site with no access is unseen. */
    std::vector<PcCounters> pcCounts;

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
