/**
 * @file
 * Once-at-startup snapshot of the TARTAN_* environment variables.
 *
 * The simulator used to probe std::getenv at arbitrary points during
 * execution (trace-session construction, bench-report writing, fault
 * planning). With concurrent runs that is both a data race (getenv is
 * not synchronised against the host environment) and a semantic hazard:
 * a variable changing mid-sweep would reconfigure later runs of the
 * same campaign. RunEnv::get() parses every variable exactly once, the
 * first time any consumer asks, and hands out an immutable snapshot for
 * the rest of the process lifetime.
 */

#ifndef TARTAN_SIM_ENV_HH
#define TARTAN_SIM_ENV_HH

#include <string>

#include "sim/types.hh"

namespace tartan::sim {

/** Immutable parse of the TARTAN_* configuration environment. */
struct RunEnv {
    /** $TARTAN_TRACE: trace output directory ("" = tracing off). */
    std::string traceDir;
    /** $TARTAN_TRACE_EPOCH: epoch length override (0 = default). */
    Cycles traceEpochCycles = 0;
    /** $TARTAN_BENCH_DIR: BENCH_*.json directory ("" = CWD). */
    std::string benchDir;
    /** $TARTAN_FAULTS: fault-plan spec, unparsed ("" = no faults). */
    std::string faultSpec;
    /** $TARTAN_JOBS: worker count for RunPool (0 = unset). */
    unsigned jobs = 0;
    /**
     * $TARTAN_TIMEOUT: per-cell wall-clock deadline in seconds for
     * campaign runs (0 = no watchdog). A cell exceeding it is unwound
     * via the heartbeat, retried with backoff and — still failing —
     * quarantined instead of hanging the sweep.
     */
    double timeoutSec = 0.0;
    /**
     * $TARTAN_RETRIES: re-attempts after a cell's first failure
     * (default 1). 0 quarantines on the first failure.
     */
    unsigned retries = 1;
    /**
     * $TARTAN_BACKOFF_MS: base delay between cell attempts in
     * milliseconds, doubling per retry (default 100).
     */
    unsigned backoffMs = 100;
    /**
     * $TARTAN_RESUME: when truthy ("1"/"on"/"true"), campaigns store
     * every completed cell in a resume store (`RESUME_<driver>/` next
     * to their BENCH output) and serve stored cells from it — a killed
     * sweep resumes where it died, with a byte-identical final payload.
     */
    bool resume = false;
    /**
     * $TARTAN_CACHE_DIR: content-addressed result-cache directory
     * ("" = caching off). Cells whose (config hash, seed, schema)
     * already have a verified entry load it instead of re-simulating.
     */
    std::string cacheDir;
    /**
     * $TARTAN_CAPTURE_DIR: directory for persisted capture traces
     * ("" = keep captures in memory only). Files are content-addressed
     * by (capture config hash, seed), so re-runs of the same sweep
     * reload the capture instead of re-executing the robot.
     */
    std::string captureDir;
    /**
     * $TARTAN_CORES: instantiated core count for multi-core drivers
     * (0 = driver default). fleet_contention uses it as the fleet
     * size; drivers built on the single-core machine ignore it.
     */
    unsigned cores = 0;
    /** $TARTAN_XBAR_HOP: crossbar per-hop latency override (0=default). */
    Cycles xbarHop = 0;
    /** $TARTAN_DRAM_BANKS: DRAM bank-count override (0 = default). */
    unsigned dramBanks = 0;
    /** $TARTAN_COHERENCE_LAT: snoop/upgrade latency override (0=dflt). */
    Cycles coherenceLat = 0;

    /**
     * The process-wide snapshot. Parsed exactly once (thread-safe
     * function-local static); later changes to the host environment are
     * intentionally invisible, so a sweep's configuration cannot drift
     * between its runs.
     */
    static const RunEnv &get();

    /**
     * Parse the host environment as it is right now. This is what
     * get() does on its first call; tests use it directly to exercise
     * the parsing without depending on process-lifetime state.
     */
    static RunEnv parse();
};

} // namespace tartan::sim

#endif // TARTAN_SIM_ENV_HH
