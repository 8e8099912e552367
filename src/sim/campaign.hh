/**
 * @file
 * Campaign resilience: the runner that makes a bench sweep survive
 * crashes, hangs and kills.
 *
 * A *campaign* is a driver's ordered list of independent cells (robot
 * x machine x options), each identified by (submission index, config
 * hash, seed, label) and producing an encoded payload string. The
 * CampaignRunner executes them through a RunPool with three layers of
 * protection stacked in lookup order:
 *
 *   submit(cell) ──► worker: resume-store hit? ──► verified payload
 *                            │
 *                            ├► shared-cache hit? ──► verified payload
 *                            │
 *                            └► run under ScopedCellWatch
 *                                 │ CellTimeoutError / CellCrashError /
 *                                 │ std::exception
 *                                 └► retry with exponential backoff,
 *                                    then quarantine (Status::Failed)
 *
 * Both stores are ResultCache instances, so a completed cell has one
 * on-disk format (a CRC-verified, content-addressed JSON envelope).
 * The *resume store* (TARTAN_RESUME) lives in
 * `<journalDir>/RESUME_<driver>/` and belongs to one driver; the
 * *shared cache* (TARTAN_CACHE_DIR) may serve any campaign.
 *
 * gather() consumes outcomes in submission order — the same ordering
 * discipline that keeps parallel BENCH payloads byte-identical to
 * serial ones. It stores every completed cell the resume store did not
 * serve into the resume store (durable atomic rename, so a SIGKILL
 * preserves every finished cell) and every fresh simulation into the
 * shared cache. Failed cells are stored in neither: a resumed or
 * re-run campaign retries them.
 *
 * Quarantined cells never abort the sweep. They surface as
 * Status::Failed outcomes with an error class ("timeout", "crash",
 * "exception"), which the bench layer reports in the BENCH manifest's
 * "failures" block; exit policy is the driver's call.
 */

#ifndef TARTAN_SIM_CAMPAIGN_HH
#define TARTAN_SIM_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "sim/result_cache.hh"
#include "sim/runpool.hh"

namespace tartan::sim {

/** Knobs of the resilience layer (see the TARTAN_* env vars). */
struct CampaignConfig {
    /** Per-cell wall-clock deadline in seconds (0 = no watchdog). */
    double timeoutSec = 0.0;
    /** Re-attempts after a failed first try (TARTAN_RETRIES). */
    unsigned retries = 1;
    /** Base backoff between attempts; doubles per retry. */
    unsigned backoffMs = 100;
    /** Serve completed cells from the resume store (TARTAN_RESUME). */
    bool resume = false;
    /** Parent directory of the resume store (default: BENCH dir). */
    std::string journalDir;
    /** Result-cache directory ("" = caching off, TARTAN_CACHE_DIR). */
    std::string cacheDir;

    /** The knobs from the process-wide RunEnv snapshot. */
    static CampaignConfig fromEnv();
};

/** Identity of one campaign cell. */
struct CellSpec {
    std::string label;            //!< human-readable row name
    std::uint64_t configHash = 0; //!< content hash of the configuration
    std::uint64_t seed = 0;       //!< workload seed
    /**
     * Whether the cell's payload may be stored for resume and caching.
     * False cells still get watchdog/retry/quarantine hardening, but
     * always re-simulate.
     */
    bool cacheable = true;
};

/** One quarantined cell, with its identity and error classification. */
struct CellFailure {
    std::uint64_t index = 0;  //!< submission index within the campaign
    std::string label;        //!< cell label
    std::string errorClass;   //!< "timeout" | "crash" | "exception"
    std::string detail;       //!< exception what() of the last attempt
    unsigned attempts = 0;    //!< attempts consumed (1 + retries)
};

/** Result of one cell after the resilience layer is done with it. */
struct CellOutcome {
    /** Completed (payload valid) vs quarantined (failure fields valid). */
    enum class Status { Ok, Failed };
    /**
     * Where an Ok payload came from: a simulation, the resume store
     * (Journal, counted as journalHits) or the shared cache.
     */
    enum class Source { Run, Journal, Cache };

    Status status = Status::Failed; //!< completed vs quarantined
    Source source = Source::Run;    //!< payload provenance (Ok only)
    std::uint64_t index = 0;  //!< submission index
    std::string label;        //!< cell label
    std::string payload;      //!< encoded result (Ok only)
    std::string errorClass;   //!< Failed only
    std::string errorDetail;  //!< Failed only
    unsigned attempts = 0;    //!< attempts consumed (0 for replays)
};

/** Per-campaign accounting, surfaced in the BENCH manifest. */
struct CampaignStats {
    std::uint64_t simulated = 0;    //!< cells actually run
    std::uint64_t journalHits = 0;  //!< cells served by the resume store
    std::uint64_t cacheHits = 0;    //!< cells loaded from the cache
    std::uint64_t failed = 0;       //!< cells quarantined
    std::vector<CellFailure> failures; //!< identity of every failure
};

/** Executes one driver's cells with resume/cache/watchdog/retry. */
class CampaignRunner
{
  public:
    /**
     * A runner for @p driver over @p pool. @p schema_version
     * identifies the payload encoding (codec x CPI taxonomy); stored
     * entries from any other schema are stale and ignored.
     */
    CampaignRunner(std::string driver, RunPool &pool, CampaignConfig cfg,
                   std::uint64_t schema_version);

    ~CampaignRunner();

    CampaignRunner(const CampaignRunner &) = delete;
    CampaignRunner &operator=(const CampaignRunner &) = delete;

    /**
     * Submit one cell. @p run executes on a pool worker and returns
     * the encoded payload; it must be self-contained (own its spec /
     * options / injectors) and deterministic, so a retry or a replay
     * reproduces the identical payload.
     */
    void submit(CellSpec spec, std::function<std::string()> run);

    /**
     * Wait for every submitted cell, in submission order; store
     * completed cells the resume store did not serve into it and
     * fresh simulations into the shared cache. Call exactly once.
     */
    std::vector<CellOutcome> gather();

    /** Accounting; complete once gather() returned. */
    const CampaignStats &stats() const { return statsData; }

  private:
    struct PendingCell {
        CellSpec spec;
        std::future<CellOutcome> fut;
    };

    CellOutcome runAttempts(const CellSpec &spec, std::uint64_t index,
                            const std::function<std::string()> &run) const;

    std::string driverName;
    RunPool &pool;
    CampaignConfig cfg;
    std::uint64_t schemaVersion;
    std::unique_ptr<ResultCache> resumePtr;  //!< null unless cfg.resume
    std::unique_ptr<ResultCache> cachePtr;   //!< null unless cfg.cacheDir
    std::vector<PendingCell> pending;
    CampaignStats statsData;
    bool gathered = false;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_CAMPAIGN_HH
