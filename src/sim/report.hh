/**
 * @file
 * Machine-readable bench reporting.
 *
 * Every figure/table reproduction binary routes its results through a
 * BenchReporter: the human-readable table still goes to stdout, and on
 * destruction the reporter writes `BENCH_<name>.json` with the schema
 *
 *   {
 *     "bench":    "<name>",
 *     "manifest": {"git": ..., "timestamp": ..., "paper": ...,
 *                  "cpiTaxonomyVersion": ..., "cpiCategories": [...]},
 *     "config":   {<knob>: <value>, ...},
 *     "metrics":  {<metric>: <number>, ...},
 *     "kernels":  [{"name": ..., "metrics": {...}}, ...],
 *     "cpi":      {"taxonomyVersion": ..., "categories": [...],
 *                  "rows": [{"run": ..., "kernel": ..., "cycles": ...,
 *                            "stack": {<category>: <cycles>, ...}}]}
 *   }
 *
 * The cpi block (present whenever a driver recorded CPI rows) carries
 * one row per (run, kernel) with the per-category cycle stack; the
 * categories always sum exactly to the row's cycles, and the schema
 * validator rejects payloads whose category set deviates from the
 * compiled taxonomy.
 *
 * so successive PRs accumulate a queryable perf trajectory. The output
 * directory defaults to the CWD and can be redirected with the
 * TARTAN_BENCH_DIR environment variable.
 */

#ifndef TARTAN_SIM_REPORT_HH
#define TARTAN_SIM_REPORT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/cpistack.hh"
#include "sim/trace.hh"

namespace tartan::sim {

/** Collects one bench run's results and emits BENCH_<name>.json. */
class BenchReporter
{
  public:
    /**
     * Prints the run banner (title + paper expectation) immediately.
     *
     * @param bench_name the binary's canonical name (e.g. "fig09_nns")
     * @param paper_note the paper's expected shape for this experiment
     */
    BenchReporter(std::string bench_name, std::string paper_note);

    /** Writes the JSON file unless writeFile() already ran. */
    ~BenchReporter();

    BenchReporter(const BenchReporter &) = delete;
    BenchReporter &operator=(const BenchReporter &) = delete;

    /** Echo one configuration knob into the manifest's config block. */
    void config(const std::string &key, const std::string &value);
    void config(const std::string &key, double value);

    /** Record a top-level scalar result. */
    void metric(const std::string &name, double value);

    /** Record a per-unit (robot, configuration, ...) scalar result. */
    void kernelMetric(const std::string &kernel, const std::string &key,
                      double value);

    /**
     * Record one per-kernel CPI-stack row of run @p run: @p cycles
     * total cycles of simulated kernel @p kernel decomposed into
     * @p stack (one entry per CpiCat, must sum to @p cycles — the
     * validator enforces it).
     */
    void cpiRow(const std::string &run, const std::string &kernel,
                Cycles cycles, const CpiStack &stack);

    /** Attach a free-form note (shape checks) to the manifest. */
    void note(const std::string &text);

    /**
     * Record one quarantined campaign cell: the sweep kept going, this
     * cell's result is a placeholder, and the manifest says so. Rows
     * land in manifest.failures (cell identity, error class, detail,
     * attempts burned), which bench_diff ignores by construction — a
     * failing sweep still emits a complete, comparable payload.
     */
    void cellFailure(const std::string &cell, const std::string &err_class,
                     const std::string &detail, unsigned attempts);

    /**
     * Accumulate campaign counters (multiple runAll sweeps per driver
     * add up) into the manifest.campaign block: cells simulated fresh,
     * served by the resume store, served from the result cache, failed.
     */
    void campaignStats(std::uint64_t simulated, std::uint64_t journal_hits,
                       std::uint64_t cache_hits, std::uint64_t failed);

    /**
     * Record the capture-replay accounting (manifest.capture block):
     * robot executions recorded, captures served from TARTAN_CAPTURE_DIR
     * files, cells replayed, and of those the ones whose L1 replayed
     * from the capture. Like the campaign block, it lives in the
     * manifest so bench_diff never compares it — a replayed sweep's
     * payload stays byte-comparable to a direct one.
     */
    void captureStats(std::uint64_t captures, std::uint64_t file_hits,
                      std::uint64_t replays, std::uint64_t l1_replays);

    /**
     * Echo the fault plan this run applied (manifest.faults and
     * manifest.faultSeed). Without a call the manifest says "none":
     * only a driver that injects the plan may name it.
     */
    void faultPlan(const std::string &spec, std::uint64_t seed);

    /** True when any cellFailure() was recorded (exit-code policy). */
    bool hasFailures() const { return !failureRows.empty(); }

    /**
     * The trace config of one run of this bench, honouring the
     * TARTAN_TRACE environment variable (output directory), or nullopt
     * when tracing is off. The run's TRACE_<bench>_<run>.json (+
     * _epochs.json) paths are echoed in this reporter's manifest under
     * "traces", in call order; each attempt of the run builds its own
     * TraceSession from the config.
     */
    std::optional<TraceConfig> traceConfig(const std::string &run);

    /** Serialize the full document. */
    void writeJson(std::ostream &os) const;

    /** Destination path: $TARTAN_BENCH_DIR or CWD + BENCH_<name>.json. */
    std::string outputPath() const;

    /** Write outputPath(); reports failures on stderr. */
    bool writeFile();

    const std::string &name() const { return benchName; }

  private:
    struct ConfigVal {
        bool isNum = false;
        std::string str;
        double num = 0.0;
    };

    struct CpiRowData {
        std::string run;
        std::string kernel;
        Cycles cycles = 0;
        CpiStack stack;
    };

    struct FailureRow {
        std::string cell;
        std::string errClass;
        std::string detail;
        unsigned attempts = 0;
    };

    struct CampaignTotals {
        bool recorded = false;
        std::uint64_t simulated = 0;
        std::uint64_t journalHits = 0;
        std::uint64_t cacheHits = 0;
        std::uint64_t failed = 0;
    };

    struct CaptureTotals {
        bool recorded = false;
        std::uint64_t captures = 0;
        std::uint64_t fileHits = 0;
        std::uint64_t replays = 0;
        std::uint64_t l1Replays = 0;
    };

    std::string benchName;
    std::string paperNote;
    std::string noteText;
    std::string faultSpec = "none";
    std::uint64_t faultSeed = 0;
    std::map<std::string, ConfigVal> configVals;
    std::map<std::string, double> metrics;
    std::vector<std::pair<std::string, std::map<std::string, double>>>
        kernelRows;
    std::vector<CpiRowData> cpiRows;
    std::vector<FailureRow> failureRows;
    CampaignTotals campaignTotals;
    CaptureTotals captureTotals;
    std::vector<std::string> tracePaths;
    bool written = false;
};

/**
 * Validate a BENCH_*.json document against the schema above. Returns
 * false with a diagnostic in @p err (when non-null) on any deviation.
 */
bool validateBenchJson(std::string_view text, std::string *err = nullptr);

} // namespace tartan::sim

#endif // TARTAN_SIM_REPORT_HH
