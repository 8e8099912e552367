/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: the
 * BenchReporter every driver routes its results through (human table on
 * stdout plus a machine-readable BENCH_<name>.json), normalisation and
 * geometric means, the standard per-run metric snapshot, and the one
 * cell runner every driver executes its independent runs through.
 * Every bench prints the paper's expected shape next to the measured
 * values so the output can be diffed against EXPERIMENTS.md.
 *
 * Parallel-run pattern: a driver builds its complete list of campaign
 * cells (each capturing its own MachineSpec / WorkloadOptions / trace
 * config by value), hands them to runAll(rep, pool, cells), and only
 * then formats tables from the in-submission-order results. All
 * printing happens on the main thread after the gather, so stdout and
 * the BENCH manifest are byte-identical whatever TARTAN_JOBS is.
 *
 * runAll() routes every cell through sim::CampaignRunner: resume-store
 * hits under TARTAN_RESUME, verified result-cache hits under
 * TARTAN_CACHE_DIR, watchdog deadlines under TARTAN_TIMEOUT with
 * TARTAN_RETRIES re-attempts, and quarantine (placeholder result +
 * manifest failure row) instead of sweep abort. Result types
 * round-trip through CellCodec so a stored payload is byte-identical
 * to a fresh one; there are two: RunResult and FleetOutcome.
 *
 * Timing-only sweeps capture once and replay many: a CaptureSource
 * records one op stream (workloads::capture, keyed by the stream key)
 * and every replayCell(src, label, spec) replays it on its own timing
 * config, which must keep the source's stream.
 */

#ifndef TARTAN_BENCH_UTIL_HH
#define TARTAN_BENCH_UTIL_HH

#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/campaign.hh"
#include "sim/capture.hh"
#include "sim/checksum.hh"
#include "sim/env.hh"
#include "sim/logging.hh"
#include "sim/report.hh"
#include "sim/runpool.hh"
#include "sim/watchdog.hh"
#include "workloads/cellcodec.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

namespace tartan::bench {

using tartan::sim::BenchReporter;
using tartan::sim::RunPool;
using workloads::MachineSpec;
using workloads::RobotFn;
using workloads::RunResult;
using workloads::SoftwareTier;
using workloads::WorkloadOptions;

/**
 * Geometric mean of the positive entries of @p values. Non-positive
 * entries would put log(0) = -inf (or a NaN) into the accumulator and
 * silently poison the whole mean, so they are skipped with a warn() —
 * a degenerate run should never erase every other robot's result.
 *
 * When *every* entry is skipped (or @p values is empty) there is no
 * mean to report: the result is NaN, which the JSON writer emits as
 * null and report_md renders as "n/a". The historical 0.0 here was a
 * silent lie — it flowed into normalised columns and speedup() as a
 * fake baseline.
 */
inline double
geomean(const std::vector<double> &values)
{
    double acc = 0.0;
    std::size_t used = 0;
    for (double v : values) {
        if (!(v > 0.0)) {
            sim::warn("bench: geomean skipping non-positive value %g", v);
            continue;
        }
        acc += std::log(v);
        ++used;
    }
    if (!used) {
        sim::warn("bench: geomean of no positive values; reporting NaN");
        return std::nan("");
    }
    return std::exp(acc / static_cast<double>(used));
}

/**
 * Normalised value helper (baseline / value = speedup). A non-positive
 * @p value means the run recorded no time at all — report it instead of
 * returning a silent 0.0 that downstream means would choke on.
 */
inline double
speedup(double baseline, double value)
{
    if (!(value > 0.0)) {
        sim::warn("bench: speedup of a non-positive run time %g "
                  "(baseline %g); reporting 0",
                  value, baseline);
        return 0.0;
    }
    return baseline / value;
}

/** Default per-bench workload scale (kept small for sweep benches). */
inline WorkloadOptions
options(SoftwareTier tier, double scale = 1.0, std::uint64_t seed = 42)
{
    WorkloadOptions opt;
    opt.tier = tier;
    opt.scale = scale;
    opt.seed = seed;
    return opt;
}

/**
 * One campaign cell: a labelled, content-addressed run closure. The
 * label is the human identity (failure reports); the (configHash,
 * seed) pair is the machine identity that keys the resume store and
 * the result cache. Everything inside fn is captured by
 * value, so the closure owns its whole configuration and shares
 * nothing with its siblings — which is also what makes a retry or a
 * replay reproduce the identical payload.
 */
template <typename R>
struct Cell {
    std::string label;
    std::uint64_t configHash = 0;
    std::uint64_t seed = 0;
    std::function<R()> fn;
};

/**
 * Exact payload codec for a cell-result type. Specialisations must
 * round-trip exactly — decode(encode(x)) == x bit for bit — and
 * expose a schema() that changes whenever the encoding does. The
 * primary template is left undefined, so runAll over a result type
 * without a codec does not compile.
 */
template <typename R>
struct CellCodec;

/** RunResult codec: the exact encoder from workloads/cellcodec. */
template <>
struct CellCodec<RunResult> {
    static std::uint64_t schema() { return workloads::cellSchemaVersion(); }
    static std::string
    encode(const RunResult &res)
    {
        return workloads::encodeRunResult(res);
    }
    static bool
    decode(const std::string &payload, RunResult &out,
           std::string *err = nullptr)
    {
        return workloads::decodeRunResult(payload, out, err);
    }
};

/** One fleet run: replayFleet()'s per-core results plus the fabric. */
struct FleetOutcome {
    std::vector<RunResult> cores;
    workloads::FleetUncoreSnapshot uncore;
};

/**
 * FleetOutcome codec, built from the RunResult and u64 codecs only:
 * each core as an embedded encodeRunResult() payload string, the
 * fabric as a fixed-order array of encodeU64() counters.
 */
template <>
struct CellCodec<FleetOutcome> {
    /** Every fabric counter of @p u, in wire order. */
    static std::array<std::uint64_t *, 14>
    fabric(workloads::FleetUncoreSnapshot &u)
    {
        return {&u.coherence.snoops,      &u.coherence.invalidations,
                &u.coherence.downgrades,  &u.coherence.dirtyForwards,
                &u.coherence.upgrades,    &u.coherence.sharedFills,
                &u.xbar.traversals,       &u.xbar.hops,
                &u.memctrl.reads,         &u.memctrl.writes,
                &u.memctrl.rowHits,       &u.memctrl.rowMisses,
                &u.memctrl.bankConflicts, &u.memctrl.conflictCycles};
    }
    static std::uint64_t
    schema()
    {
        // Distinct from the RunResult schema, so the two payload
        // families never share a stored entry.
        return sim::fnv1a64Mix(sim::fnv1a64("tartan-fleet-codec-v1"),
                               workloads::cellSchemaVersion());
    }
    static std::string
    encode(const FleetOutcome &out)
    {
        std::ostringstream os;
        os << "{\"v\":\"1\",\"cores\":[";
        for (std::size_t i = 0; i < out.cores.size(); ++i) {
            os << (i ? "," : "");
            sim::json::writeString(os,
                                   workloads::encodeRunResult(out.cores[i]));
        }
        os << "],\"fabric\":[";
        workloads::FleetUncoreSnapshot u = out.uncore;
        const char *sep = "";
        for (const std::uint64_t *f : fabric(u)) {
            os << sep << "\"" << workloads::encodeU64(*f) << "\"";
            sep = ",";
        }
        os << "]}";
        return os.str();
    }
    static bool
    decode(const std::string &payload, FleetOutcome &out,
           std::string *err = nullptr)
    {
        const auto fail = [err](const char *why) {
            if (err && err->empty())
                *err = why;
            return false;
        };
        sim::json::Value doc;
        if (!sim::json::parse(payload, doc, err))
            return fail("bad fleet payload");
        const sim::json::Value *version = doc.find("v");
        const sim::json::Value *cores = doc.find("cores");
        const sim::json::Value *fab = doc.find("fabric");
        const auto fields = fabric(out.uncore);
        if (!version || !version->isString() || version->string != "1" ||
            !cores || !cores->isArray() || !fab || !fab->isArray() ||
            fab->array.size() != fields.size())
            return fail("bad fleet payload envelope");
        out.cores.assign(cores->array.size(), RunResult());
        for (std::size_t i = 0; i < out.cores.size(); ++i)
            if (!cores->array[i].isString() ||
                !workloads::decodeRunResult(cores->array[i].string,
                                            out.cores[i], err))
                return fail("bad fleet core payload");
        for (std::size_t i = 0; i < fields.size(); ++i)
            if (!fab->array[i].isString() ||
                !workloads::decodeU64(fab->array[i].string, *fields[i]))
                return fail("bad fleet fabric counter");
        return true;
    }
};

/**
 * Build one robot-run cell. The label doubles as the cell's
 * human-readable identity and as part of its content address
 * (together with every result-relevant spec/options field); @p salt
 * carries driver dimensions the spec cannot see, e.g. a fault spec.
 */
inline Cell<RunResult>
cell(std::string label, RobotFn run, MachineSpec spec, WorkloadOptions opt,
     std::string_view salt = {})
{
    Cell<RunResult> c;
    c.configHash = workloads::cellConfigHash(label, spec, opt, salt);
    c.seed = opt.seed;
    c.label = std::move(label);
    c.fn = [run, spec = std::move(spec), opt]() { return run(spec, opt); };
    return c;
}

/**
 * Run @p run with a fresh TraceSession built from @p trace attached
 * (none when @p trace is empty); the session writes its files when the
 * run returns or throws. Call it inside a cell's attempt: every attempt
 * then traces into a session of its own, and a retry's files replace
 * the failed attempt's instead of overlaying them.
 */
inline RunResult
tracedRun(const std::optional<sim::TraceConfig> &trace, RobotFn run,
          const MachineSpec &spec, WorkloadOptions opt)
{
    std::optional<sim::TraceSession> session;
    if (trace)
        opt.trace = &session.emplace(*trace);
    return run(spec, opt);
}

/**
 * Build one *traced* robot-run cell. The trace paths are registered
 * here, on the calling thread and in submission order, so the
 * reporter's manifest lists them deterministically; each attempt of
 * the cell builds its own session (tracedRun).
 */
inline Cell<RunResult>
cell(BenchReporter &rep, std::string label, RobotFn run, MachineSpec spec,
     WorkloadOptions opt, std::string_view salt = {})
{
    std::optional<sim::TraceConfig> trace = rep.traceConfig(label);
    Cell<RunResult> c = cell(std::move(label), run, spec, opt, salt);
    c.fn = [run, spec = std::move(spec), opt, trace = std::move(trace)]() {
        return tracedRun(trace, run, spec, opt);
    };
    return c;
}

/**
 * One shared capture of a (robot, machine, options) op stream,
 * recorded at most once per process and handed out to every replayed
 * sibling cell. Thread-safe: the first acquire() runs (or loads) the
 * capture under a mutex while later callers wait — with their cell
 * watchdogs suspended, because queueing behind a sibling's capture is
 * not *their* work and must not eat their TARTAN_TIMEOUT budget.
 *
 * With TARTAN_CAPTURE_DIR set, captures persist as
 * `capture_<streamhash16>_<seed>.tcap` files keyed by the stream: a
 * file recorded under any timing config, by any driver, is loaded
 * instead of executing the robot, and any invalid file
 * (truncated, bit-flipped, foreign version/identity) is ignored with a
 * warning and re-captured — same policy as the result cache.
 */
class CaptureSource
{
  public:
    CaptureSource(std::string robot, RobotFn run, MachineSpec spec,
                  WorkloadOptions opt)
        : robotName(std::move(robot)), runFn(run),
          specData(std::move(spec)), optData(opt),
          hash(workloads::streamConfigHash(robotName, specData, optData))
    {
    }

    const std::string &robot() const { return robotName; }
    const WorkloadOptions &opt() const { return optData; }
    /** The stream key of the capture. */
    std::uint64_t streamHash() const { return hash; }

    /** The capture, recording/loading it on the first call. */
    std::shared_ptr<const sim::CaptureTrace>
    acquire()
    {
        std::unique_lock<std::mutex> lock(mtx, std::defer_lock);
        {
            // Waiting for a sibling's capture is not this cell's work.
            sim::ScopedWatchSuspend suspend;
            lock.lock();
        }
        if (cached)
            return cached;
        const std::string path = filePath();
        if (!path.empty()) {
            auto loaded = std::make_shared<sim::CaptureTrace>();
            std::string err;
            if (sim::CaptureTrace::load(path, *loaded, &err) &&
                loaded->configHash == hash &&
                loaded->seed == optData.seed) {
                ++sim::captureStats().fileHits;
                cached = std::move(loaded);
                return cached;
            }
            if (!err.empty())
                sim::warn("capture: ignoring invalid '%s' (%s); "
                          "re-capturing",
                          path.c_str(), err.c_str());
        }
        auto trace = std::make_shared<sim::CaptureTrace>(
            workloads::capture(robotName, runFn, specData, optData).trace);
        if (!path.empty()) {
            std::string err;
            if (!trace->save(path, &err))
                sim::warn("capture: failed to save '%s' (%s)",
                          path.c_str(), err.c_str());
        }
        cached = std::move(trace);
        return cached;
    }

  private:
    std::string
    filePath() const
    {
        const std::string &dir = sim::RunEnv::get().captureDir;
        if (dir.empty())
            return {};
        return dir + "/capture_" + sim::hex64(hash) + "_" +
               std::to_string(optData.seed) + ".tcap";
    }

    std::string robotName;
    RobotFn runFn;
    MachineSpec specData;
    WorkloadOptions optData;
    std::uint64_t hash;
    std::mutex mtx;
    std::shared_ptr<const sim::CaptureTrace> cached;
};

/**
 * Build one robot-run cell that replays @p src's capture, with the
 * source's options, on @p spec, which must keep the capture's stream
 * (panics otherwise). Label, content address and seed are built like
 * cell()'s, so a replayed cell is indistinguishable in the resume
 * store, the result cache and the BENCH payload — byte-identical
 * results are the contract the tol-0 baseline gate enforces. @p src
 * must outlive the sweep.
 */
inline Cell<RunResult>
replayCell(CaptureSource &src, std::string label, MachineSpec spec,
           std::string_view salt = {})
{
    const WorkloadOptions &opt = src.opt();
    TARTAN_ASSERT(!workloads::hasHooks(opt),
                  "replay cell '%s' with a hook replay cannot honour",
                  label.c_str());
    TARTAN_ASSERT(workloads::streamConfigHash(src.robot(), spec, opt) ==
                      src.streamHash(),
                  "replay cell '%s' is not on its capture's stream",
                  label.c_str());
    Cell<RunResult> c;
    c.configHash = workloads::cellConfigHash(label, spec, opt, salt);
    c.seed = opt.seed;
    c.label = std::move(label);
    CaptureSource *source = &src;
    c.fn = [source, spec = std::move(spec)]() {
        return workloads::replayTrace(*source->acquire(), spec,
                                      source->opt());
    };
    return c;
}

/**
 * Surface the process-wide capture/replay accounting in @p rep's
 * manifest; runAll() calls it after every gather. A no-op while all
 * counters are zero (a driver that never replays), so its BENCH
 * payload carries no capture block.
 */
inline void
reportCaptureStats(BenchReporter &rep)
{
    const sim::CaptureStats &st = sim::captureStats();
    const std::uint64_t captures = st.captures.load();
    const std::uint64_t file_hits = st.fileHits.load();
    const std::uint64_t replays = st.replays.load();
    if (captures || file_hits || replays)
        rep.captureStats(captures, file_hits, replays);
}

/**
 * Execute @p cells through the campaign-resilience layer and return
 * their results in submission order. Ordering is what keeps parallel
 * output byte-identical to serial output: workers may finish in any
 * order, but consumers only ever see the in-order gather.
 *
 * Results always travel encode → decode — for fresh runs too, not
 * only stored ones — so every source (simulation, resume store,
 * cache) flows through the identical decode path and resume
 * byte-identity cannot be broken by an asymmetric codec bug.
 *
 * Quarantined cells come back as default-constructed placeholders;
 * their identity, error class and attempt count land in @p rep's
 * manifest (campaign + failures blocks), next to the capture
 * accounting so far. Drivers decide the exit code via campaignExit().
 */
template <typename R>
std::vector<R>
runAll(BenchReporter &rep, RunPool &pool, std::vector<Cell<R>> cells)
{
    using Codec = CellCodec<R>;
    sim::CampaignRunner runner(rep.name(), pool,
                               sim::CampaignConfig::fromEnv(),
                               Codec::schema());
    for (Cell<R> &c : cells)
        runner.submit(sim::CellSpec{std::move(c.label), c.configHash,
                                    c.seed},
                      [fn = std::move(c.fn)]() {
                          return Codec::encode(fn());
                      });
    const std::vector<sim::CellOutcome> outcomes = runner.gather();
    const sim::CampaignStats &st = runner.stats();
    rep.campaignStats(st.simulated, st.journalHits, st.cacheHits,
                      st.failed);
    for (const sim::CellFailure &f : st.failures)
        rep.cellFailure(f.label, f.errorClass, f.detail, f.attempts);
    reportCaptureStats(rep);

    std::vector<R> results(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const sim::CellOutcome &out = outcomes[i];
        if (out.status != sim::CellOutcome::Status::Ok)
            continue;  // quarantined: default-constructed placeholder
        std::string err;
        if (!Codec::decode(out.payload, results[i], &err)) {
            // Stored entries are CRC- and schema-checked before they
            // get here, so this is a codec bug, not expected
            // operation — but degrade to a quarantine-style
            // placeholder rather than aborting.
            sim::warn("bench: cell '%s' payload failed to decode "
                      "(%s); treating as failed",
                      out.label.c_str(), err.c_str());
            rep.cellFailure(out.label, "decode", err, out.attempts);
        }
    }
    return results;
}

/** Exit-code policy: 0 for a clean sweep, 3 when cells were
 * quarantined — the sweep completed and the manifest is whole, but the
 * payload contains placeholders. */
inline int
campaignExit(const BenchReporter &rep)
{
    return rep.hasFailures() ? 3 : 0;
}

/**
 * Record the standard snapshot of one robot run as a kernels[] row of
 * @p rep, named @p row (typically "<robot>" or "<robot>/<config>").
 */
inline void
reportRun(BenchReporter &rep, const std::string &row, const RunResult &res)
{
    rep.kernelMetric(row, "wallCycles", double(res.wallCycles));
    rep.kernelMetric(row, "workCycles", double(res.workCycles));
    rep.kernelMetric(row, "instructions", double(res.instructions));
    rep.kernelMetric(row, "l2Misses", double(res.l2Misses));
    rep.kernelMetric(row, "l3Traffic", double(res.l3Traffic));
    if (res.pfIssued) {
        rep.kernelMetric(row, "pfIssued", double(res.pfIssued));
        rep.kernelMetric(row, "pfHitsTimely", double(res.pfHitsTimely));
        rep.kernelMetric(row, "pfHitsLate", double(res.pfHitsLate));
    }
    if (res.npuInvocations)
        rep.kernelMetric(row, "npuInvocations",
                         double(res.npuInvocations));
}

/**
 * Record per-kernel CPI stacks of run @p run (one cpi row per kernel
 * that accumulated cycles) into @p rep.
 */
inline void
reportCpi(BenchReporter &rep, const std::string &run,
          const std::vector<sim::KernelCounters> &kernels)
{
    for (const auto &k : kernels) {
        if (!k.cycles)
            continue;
        rep.cpiRow(run, k.name, k.cycles, k.cpi);
    }
}

/** Overload for the standard robot-run snapshot. */
inline void
reportCpi(BenchReporter &rep, const std::string &run, const RunResult &res)
{
    reportCpi(rep, run, res.kernels);
}

} // namespace tartan::bench

#endif // TARTAN_BENCH_UTIL_HH
