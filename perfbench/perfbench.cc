/**
 * @file
 * tartan_perfbench: the simulator's host-performance benchmark.
 *
 * It measures what the simulator costs the host that runs it, never what
 * the modelled machine would take. Every cell it times builds a fresh
 * simulated machine, so modelled caches start empty and every simulated
 * statistic includes warm-up. The model is not validated against real
 * hardware, so the benchmark does not report an error against a
 * reference: it checks that every simulated result is bit-identical to a
 * committed golden fingerprint (goldens.json), and counts a cell whose
 * fingerprint differs, or that throws, as failed.
 *
 * All work runs serially on one thread of one process, through the
 * public entry points the bench programs use: RobotEntry::run,
 * CaptureSession, replayTrace, replayFleet and CampaignRunner (journal
 * on, result cache off, RunPool of one inline worker).
 *
 * Inputs. --seed fixes the order in which each pass runs the workload's
 * cells (a seeded permutation), so host-side state carried from cell to
 * cell (heap, caches, branch history) differs from seed to seed while
 * the simulated work does not. The robots' environment seed is a
 * separate input, --robot-seed (default 42): the robots' work varies up
 * to five-fold across environment seeds (FlyBot's search visits 1.7M to
 * 15.8M L1 accesses), which would swamp the host noise the benchmark
 * exists to resolve, so every measured run simulates the same work.
 *
 * Workloads (scale 1.0, Optimized software tier):
 *
 *  direct_suite  The six robots run directly on MachineSpec::tartan(),
 *                one campaign cell each, no capture, no observer.
 *                Why: the path of every non-replayed bench-program cell.
 *                Busiest: robot compute and Core accounting (robotics,
 *                core), addrmap, the fast L1 walk and miss walk, ANL and
 *                FCP. Idle: uncore, capture, replay.
 *  replay_sweep  The fig10 sweep under capture/replay: each robot is
 *                captured once on MachineSpec::baseline() during set-up,
 *                then 6 robots x {none, ANL, Next-Line, Bingo} replayTrace
 *                cells are timed. Why: the replay path of abl/fig10/
 *                fig11/tab03. Busiest: replay decode, memsystem and four
 *                different prefetchers. Idle: robotics; a robot-side gain
 *                must show no change here.
 *  fleet4        DeliBot, PatrolBot, MoveBot and HomeBot captured on the
 *                baseline machine during set-up; the timed cells are
 *                replayFleet at simCores=4 with a shared L3 and with
 *                FCP at the L3. Why: every access takes the hooked walk
 *                plus snoop, crossbar and DRAM-bank work, with no
 *                prefetcher. Busiest: uncore, memsystem, replay. Idle:
 *                robotics, prefetch, capture (set-up only).
 *  traced_suite  direct_suite with a TraceSession attached to each cell
 *                (default epoch, files written to the work directory,
 *                the write included in the cell). Why: the only
 *                workload where the trace layer runs, and a second route
 *                into the hooked walk. Its results must equal the
 *                direct_suite goldens: tracing is observational.
 *
 * Untraced invocations (--trace 0) repeat the workload's cells in passes
 * until --seconds have elapsed, with the reference kernel of
 * reference.hh timed before the first cell and after every cell, and
 * report per workload:
 *   wall_s        host seconds of the timed cells at the reference host's
 *                 speed: per cell, the median over passes of its time over
 *                 the host speed around it (the median of the three
 *                 reference runs before and after), summed over cells and
 *                 the campaign gather, times kReferenceNominalSeconds;
 *   maccess_per_s sum of l1Accesses over the timed cells (every core of
 *                 a fleet) divided by wall_s, in millions: an aggregate
 *                 rate, not a mean of per-robot rates;
 *   setup_s       host seconds from process spawn to the first timed
 *                 cell, at the reference host's speed likewise;
 *   peak_rss_mb   peak resident set of the process.
 * Raw seconds and the measured host speed go to standard error.
 *
 * Traced invocations (--trace 1) record a span around every call the
 * benchmark makes, re-feed each cell's captured op stream through the
 * single-layer loops of drilldown.hh, and report per-layer host cost,
 * per-layer counts, the residue of the cell wall no layer estimate
 * covers, and the span-recording overhead. No layer here queues or
 * waits (one thread), so no waiting time is reported.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "drilldown.hh"
#include "reference.hh"
#include "sim/campaign.hh"
#include "sim/capture.hh"
#include "sim/checksum.hh"
#include "sim/json.hh"
#include "sim/result_cache.hh"
#include "sim/runpool.hh"
#include "sim/trace.hh"
#include "spans.hh"
#include "workloads/cellcodec.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

namespace tartan::perfbench {
namespace {

namespace fs = std::filesystem;
using sim::CaptureTrace;
using workloads::FleetUncoreSnapshot;
using workloads::MachineSpec;
using workloads::RobotEntry;
using workloads::RunResult;
using workloads::WorkloadOptions;

/** Command line. */
struct Args {
    std::string workload;
    std::uint64_t seed = 42;       //!< cell-order permutation
    std::uint64_t robotSeed = 42;  //!< robots' environment seed
    double seconds = 10.0;
    bool trace = false;
    std::string goldens;         //!< golden fingerprint file
    std::string workDir;         //!< scratch directory (removed by caller)
    bool setupOnly = false;      //!< stop after set-up, report setup_s
    bool emitFingerprints = false;  //!< one pass, print fingerprints
    std::int64_t spawnNs = -1;   //!< CLOCK_MONOTONIC ns at process spawn
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: tartan_perfbench --workload "
                 "{direct_suite|replay_sweep|fleet4|traced_suite} "
                 "--seed N --seconds S --trace {0|1} --goldens FILE "
                 "--work-dir DIR [--robot-seed N] [--spawn-ns NS] "
                 "[--setup-only] "
                 "[--emit-fingerprints]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--robot-seed")
            a.robotSeed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = value() != "0";
        else if (k == "--goldens")
            a.goldens = value();
        else if (k == "--work-dir")
            a.workDir = value();
        else if (k == "--spawn-ns")
            a.spawnNs = std::stoll(value());
        else if (k == "--setup-only")
            a.setupOnly = true;
        else if (k == "--emit-fingerprints")
            a.emitFingerprints = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload != "direct_suite" && a.workload != "replay_sweep" &&
        a.workload != "fleet4" && a.workload != "traced_suite")
        usage("unknown workload");
    if (a.workDir.empty())
        usage("--work-dir is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Median of @p seconds, each divided by the host speed around it: the
 * median of the three reference runs before and the three after it
 * (@p after[i] indexes the first run after sample i).
 */
double
medianRelative(const std::vector<double> &seconds,
               const std::vector<std::size_t> &after,
               const std::vector<double> &reference)
{
    std::vector<double> rel;
    for (std::size_t i = 0; i < seconds.size() && i < after.size(); ++i) {
        const std::size_t k = after[i];
        const auto lo = reference.begin() + std::ptrdiff_t(k >= 3 ? k - 3 : 0);
        const auto hi = reference.begin() +
                        std::ptrdiff_t(std::min(reference.size(), k + 3));
        rel.push_back(seconds[i] / median(std::vector<double>(lo, hi)));
    }
    return median(rel);
}

/** The CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Restrict this (single-threaded) process to CPU @p cpu. */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : std::uint64_t(n);
}

WorkloadOptions
workloadOptions(std::uint64_t seed)
{
    WorkloadOptions opt;
    opt.tier = workloads::SoftwareTier::Optimized;
    opt.scale = 1.0;
    opt.seed = seed;
    return opt;
}

/** fig10's machine for prefetcher configuration @p kind. */
MachineSpec
prefetchSpec(int kind)
{
    MachineSpec spec = MachineSpec::baseline();
    if (kind == 1) {
        spec.useAnl = true;
        spec.anlCfg.lineBytes = spec.sys.lineBytes;
    } else if (kind == 2) {
        spec.sys.prefetcher = sim::PrefetcherKind::NextLine;
    } else if (kind == 3) {
        spec.sys.prefetcher = sim::PrefetcherKind::Bingo;
    }
    return spec;
}
const char *const kPrefetchNames[] = {"No", "ANL", "NL", "Bingo"};

/** fleet_contention's machine: shared L3, or FCP at L2 and L3. */
MachineSpec
fleetSpec(bool fcp_at_l3)
{
    MachineSpec spec = MachineSpec::baseline();
    if (fcp_at_l3) {
        spec.sys.fcpEnabled = true;
        spec.sys.fcpAtL3 = true;
    }
    return spec;
}
const char *const kFleetModes[] = {"shared", "fcp"};
constexpr std::size_t kFleetSize = 4;

// ---------------------------------------------------------------------
// Cell payloads: the exact RunResult codec, one result per core joined
// by '|', plus the fleet's uncore counters. The fingerprint is the
// FNV-1a 64 of the payload, so it covers every RunResult counter, the
// per-kernel CPI stacks and the quality-metric map.

std::string
encodeUncore(const FleetUncoreSnapshot &u)
{
    std::ostringstream os;
    os << "U:" << u.coherence.snoops << ',' << u.coherence.invalidations
       << ',' << u.coherence.downgrades << ','
       << u.coherence.dirtyForwards << ',' << u.coherence.upgrades << ','
       << u.coherence.sharedFills << ',' << u.xbar.traversals << ','
       << u.xbar.hops << ',' << u.memctrl.reads << ','
       << u.memctrl.writes << ',' << u.memctrl.rowHits << ','
       << u.memctrl.rowMisses << ',' << u.memctrl.bankConflicts << ','
       << u.memctrl.conflictCycles;
    return os.str();
}

std::string
encodeResults(const std::vector<RunResult> &results,
              const FleetUncoreSnapshot *uncore)
{
    std::string out;
    for (const RunResult &r : results) {
        std::string enc = workloads::encodeRunResult(r);
        if (enc.find('|') != std::string::npos)
            throw std::runtime_error("result encoding contains '|'");
        out += (out.empty() ? "" : "|") + enc;
    }
    if (uncore)
        out += "|" + encodeUncore(*uncore);
    return out;
}

/** Decoded cell payload. */
struct CellData {
    std::vector<RunResult> results;
    std::vector<std::uint64_t> uncore;  //!< encodeUncore's fields
};

bool
decodeCell(const std::string &payload, CellData &out, std::string *err)
{
    out = CellData{};
    std::size_t pos = 0;
    while (pos <= payload.size()) {
        std::size_t bar = payload.find('|', pos);
        if (bar == std::string::npos)
            bar = payload.size();
        const std::string part = payload.substr(pos, bar - pos);
        if (part.rfind("U:", 0) == 0) {
            std::istringstream is(part.substr(2));
            std::string field;
            while (std::getline(is, field, ','))
                out.uncore.push_back(std::stoull(field));
        } else {
            RunResult r;
            if (!workloads::decodeRunResult(part, r, err))
                return false;
            out.results.push_back(std::move(r));
        }
        pos = bar + 1;
    }
    return !out.results.empty();
}

std::string
fingerprint(const std::string &payload)
{
    return sim::hex64(sim::fnv1a64(payload));
}

// ---------------------------------------------------------------------
// Workload state.

/** One capture: the op stream, the run that recorded it, its cost. */
struct Captured {
    const RobotEntry *robot = nullptr;
    std::shared_ptr<CaptureTrace> trace;
    RunResult result;
    double seconds = 0.0;
};

/** One timed cell. */
struct CellDef {
    std::string label;      //!< campaign label, e.g. "replay/DeliBot/ANL"
    std::string goldenKey;  //!< key in the golden table
    std::uint64_t configHash = 0;
    std::function<std::string()> run;  //!< returns the payload
};

/** Everything measured about one cell across the passes of a run. */
struct CellStats {
    std::vector<double> seconds;  //!< cell span per pass
    /** Per pass: index of the reference run right after the cell. */
    std::vector<std::size_t> referenceAfter;
    std::string fingerprint;      //!< of the first successful pass
    CellData data;
    std::uint64_t executions = 0;
    std::uint64_t failures = 0;
    std::vector<std::string> problems;
};

struct Bench {
    Args args;
    WorkloadOptions opt;
    SpanLog spans;
    std::vector<Captured> captures;
    std::vector<CellDef> cells;
    std::vector<std::size_t> order;  //!< submission order of a pass
    std::vector<int> cpus;           //!< CPUs the cells rotate over
    std::vector<CellStats> stats;
    std::vector<double> gatherSeconds;
    std::vector<std::size_t> gatherReferenceAfter;
    std::vector<double> passSeconds;
    ReferenceKernel reference;
    std::vector<double> referenceSeconds;  //!< every reference run, in order
    /** Trace files written per traced cell (traced_suite). */
    std::map<std::string, std::uint64_t> traceBytes;

    explicit Bench(const Args &a)
        : args(a), opt(workloadOptions(a.robotSeed)), spans(a.trace)
    {
    }
};

Captured
captureRobot(Bench &b, const RobotEntry &robot, const MachineSpec &spec)
{
    sim::CaptureSession session(
        workloads::cellConfigHash(robot.name, spec, b.opt, "capture"),
        b.opt.seed);
    WorkloadOptions copt = b.opt;
    copt.capture = &session;
    Captured c;
    c.robot = &robot;
    {
        ScopedSpan span(b.spans, std::string("capture/") + robot.name);
        c.result = robot.run(spec, copt);
        // The functional outputs replay cannot recompute, recorded the
        // way the bench programs' CaptureSource records them.
        session.setRobot(c.result.robot);
        for (const auto &[name, value] : c.result.metrics)
            session.addMetric(name, value);
        c.seconds = span.stop();
    }
    c.trace = std::make_shared<CaptureTrace>(session.take());
    return c;
}

const std::vector<RobotEntry> &
fleetRoster()
{
    static const std::vector<RobotEntry> roster(
        workloads::robotSuite().begin(),
        workloads::robotSuite().begin() + kFleetSize);
    return roster;
}

/** Workload set-up: everything before the first timed cell. */
void
setup(Bench &b)
{
    const std::string &w = b.args.workload;
    if (w == "direct_suite" || w == "traced_suite") {
        // Nothing to prepare but the process itself: one untimed warm-up
        // run of the cheapest robot faults in code and the heap.
        ScopedSpan span(b.spans, "setup/warmup");
        workloads::runHomeBot(MachineSpec::tartan(), b.opt);
    } else if (w == "replay_sweep") {
        for (const RobotEntry &r : workloads::robotSuite())
            b.captures.push_back(
                captureRobot(b, r, MachineSpec::baseline()));
    } else {
        for (const RobotEntry &r : fleetRoster())
            b.captures.push_back(
                captureRobot(b, r, MachineSpec::baseline()));
    }
}

void
buildCells(Bench &b)
{
    const std::string &w = b.args.workload;
    const WorkloadOptions opt = b.opt;
    SpanLog *spans = &b.spans;
    if (w == "direct_suite" || w == "traced_suite") {
        const bool traced = w == "traced_suite";
        const std::string traceDir = b.args.workDir + "/trace";
        fs::create_directories(traceDir);
        auto *bytes = &b.traceBytes;
        for (const RobotEntry &robot : workloads::robotSuite()) {
            const MachineSpec spec = MachineSpec::tartan();
            CellDef c;
            c.label = std::string(traced ? "traced/" : "direct/") +
                      robot.name;
            c.goldenKey = std::string("direct_suite/") + robot.name;
            c.configHash = workloads::cellConfigHash(c.label, spec, opt);
            const RobotEntry *r = &robot;
            const std::string label = c.label;
            c.run = [=]() {
                std::unique_ptr<sim::TraceSession> session;
                WorkloadOptions o = opt;
                if (traced) {
                    sim::TraceConfig tc;
                    tc.dir = traceDir;
                    tc.bench = "perfbench";
                    tc.run = r->name;
                    session = std::make_unique<sim::TraceSession>(tc);
                    o.trace = session.get();
                }
                RunResult res;
                {
                    ScopedSpan span(*spans, std::string("robot/") +
                                                r->name);
                    res = r->run(spec, o);
                    if (session) {
                        session->finalize();
                        (*bytes)[label] =
                            fileBytes(session->tracePath()) +
                            fileBytes(session->epochsPath());
                    }
                }
                ScopedSpan span(*spans, "codec/encode");
                return encodeResults({res}, nullptr);
            };
            b.cells.push_back(std::move(c));
        }
    } else if (w == "replay_sweep") {
        for (const Captured &cap : b.captures) {
            for (int pf = 0; pf < 4; ++pf) {
                const MachineSpec spec = prefetchSpec(pf);
                CellDef c;
                c.label = std::string("replay/") + cap.robot->name + "/" +
                          kPrefetchNames[pf];
                c.goldenKey = "replay_sweep/" + c.label.substr(7);
                c.configHash =
                    workloads::cellConfigHash(c.label, spec, opt);
                std::shared_ptr<const CaptureTrace> trace = cap.trace;
                c.run = [=]() {
                    RunResult res;
                    {
                        ScopedSpan span(*spans, "replay/replayTrace");
                        res = workloads::replayTrace(*trace, spec, opt);
                    }
                    ScopedSpan span(*spans, "codec/encode");
                    return encodeResults({res}, nullptr);
                };
                b.cells.push_back(std::move(c));
            }
        }
    } else {
        std::vector<const CaptureTrace *> traces;
        for (const Captured &cap : b.captures)
            traces.push_back(cap.trace.get());
        for (int mode = 0; mode < 2; ++mode) {
            const MachineSpec spec = fleetSpec(mode == 1);
            CellDef c;
            c.label = std::string("fleet4/") + kFleetModes[mode];
            c.goldenKey = c.label;
            c.configHash = workloads::cellConfigHash(c.label, spec, opt);
            c.run = [=]() {
                FleetUncoreSnapshot snap;
                std::vector<RunResult> res;
                {
                    ScopedSpan span(*spans, "replay/replayFleet");
                    res = workloads::replayFleet(traces, spec, opt, &snap);
                }
                ScopedSpan span(*spans, "codec/encode");
                return encodeResults(res, &snap);
            };
            b.cells.push_back(std::move(c));
        }
    }
    b.stats.resize(b.cells.size());
    for (std::size_t i = 0; i < b.cells.size(); ++i)
        b.order.push_back(i);
    std::mt19937_64 rng(b.args.seed);
    std::shuffle(b.order.begin(), b.order.end(), rng);
}

/**
 * One pass: every cell once, through a fresh CampaignRunner (journal on
 * in a fresh directory, cache off, one inline worker, no retries). With
 * @p reference, the reference kernel runs before the first cell and
 * after every cell and the gather, outside their spans. Returns the
 * payloads of the pass in cell order ("" = failed).
 */
std::vector<std::string>
runPass(Bench &b, bool reference)
{
    const auto runReference = [&] {
        b.referenceSeconds.push_back(b.reference.run());
        return b.referenceSeconds.size() - 1;
    };
    if (reference)
        runReference();
    const std::string journalDir = b.args.workDir + "/journal";
    fs::remove_all(journalDir);
    fs::create_directories(journalDir);

    sim::CampaignConfig cfg;
    cfg.resume = true;  // journal on: every completed cell is appended
    cfg.retries = 0;
    cfg.journalDir = journalDir;

    std::vector<std::string> payloads(b.cells.size());
    ScopedSpan pass(b.spans, "pass");
    sim::RunPool pool(1);
    sim::CampaignRunner runner("perfbench_" + b.args.workload, pool, cfg,
                               workloads::cellSchemaVersion());
    const std::size_t pass_index = b.passSeconds.size();
    for (std::size_t k = 0; k < b.order.size(); ++k) {
        const std::size_t i = b.order[k];
        const CellDef &c = b.cells[i];
        // Cells rotate over every CPU the process may use, a different
        // one for the same cell in each pass: on a shared host one
        // virtual CPU can run this code far slower than another for
        // minutes at a time, and a run pinned to it by chance would
        // read as a regression.
        if (!b.cpus.empty())
            pinTo(b.cpus[(pass_index + k) % b.cpus.size()]);
        ScopedSpan span(b.spans, "cell/" + c.label);
        runner.submit(sim::CellSpec{c.label, c.configHash, b.opt.seed,
                                    true},
                      c.run);
        b.stats[i].seconds.push_back(span.stop());
        if (reference)
            b.stats[i].referenceAfter.push_back(runReference());
    }
    std::vector<sim::CellOutcome> outcomes;
    {
        ScopedSpan span(b.spans, "campaign/gather");
        outcomes = runner.gather();
        b.gatherSeconds.push_back(span.stop());
    }
    if (reference)
        b.gatherReferenceAfter.push_back(runReference());
    b.passSeconds.push_back(pass.stop());

    for (std::size_t k = 0; k < b.order.size(); ++k) {
        const std::size_t i = b.order[k];
        CellStats &s = b.stats[i];
        const sim::CellOutcome &o = outcomes[k];
        ++s.executions;
        if (o.status != sim::CellOutcome::Status::Ok) {
            ++s.failures;
            s.problems.push_back(o.errorClass + ": " + o.errorDetail);
            continue;
        }
        payloads[i] = o.payload;
        const std::string fp = fingerprint(o.payload);
        if (s.fingerprint.empty()) {
            std::string err;
            if (!decodeCell(o.payload, s.data, &err)) {
                ++s.failures;
                s.problems.push_back("undecodable payload: " + err);
                continue;
            }
            s.fingerprint = fp;
        } else if (fp != s.fingerprint) {
            ++s.failures;
            s.problems.push_back("result differs between passes");
        }
    }
    return payloads;
}

// ---------------------------------------------------------------------
// Correctness.

/** The golden table for @p seed: golden key -> fingerprint. */
bool
loadGoldens(const std::string &path, std::uint64_t seed,
            std::map<std::string, std::string> &out)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read goldens '" + path + "'");
    std::stringstream ss;
    ss << in.rdbuf();
    sim::json::Value doc;
    std::string err;
    if (!sim::json::parse(ss.str(), doc, &err))
        throw std::runtime_error("bad goldens '" + path + "': " + err);
    const sim::json::Value *seeds = doc.find("seeds");
    const sim::json::Value *table =
        seeds ? seeds->find(std::to_string(seed)) : nullptr;
    if (!table || !table->isObject())
        return false;
    for (const auto &[key, value] : table->object)
        if (value.isString())
            out[key] = value.string;
    return true;
}

/**
 * Check every cell: no failed execution, identical results in every
 * pass, the golden fingerprint when the seed has goldens, and, for
 * replay_sweep, replay on the capture machine equal to the captured
 * direct run. Returns the number of failed executions.
 */
std::uint64_t
checkCells(Bench &b)
{
    std::map<std::string, std::string> goldens;
    const bool haveGoldens =
        !b.args.goldens.empty() &&
        loadGoldens(b.args.goldens, b.args.robotSeed, goldens);
    if (!haveGoldens)
        std::fprintf(stderr,
                     "perfbench: no goldens for robot seed %llu; checking "
                     "pass-to-pass identity%s only\n",
                     (unsigned long long)b.args.robotSeed,
                     b.args.workload == "replay_sweep"
                         ? " and replay == captured run"
                         : "");

    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < b.cells.size(); ++i) {
        CellStats &s = b.stats[i];
        const CellDef &c = b.cells[i];
        bool bad = false;
        if (haveGoldens && !s.fingerprint.empty()) {
            const auto it = goldens.find(c.goldenKey);
            if (it == goldens.end()) {
                s.problems.push_back("no golden for " + c.goldenKey);
                bad = true;
            } else if (it->second != s.fingerprint) {
                s.problems.push_back("fingerprint " + s.fingerprint +
                                     " != golden " + it->second);
                bad = true;
            }
        }
        if (b.args.workload == "replay_sweep" &&
            c.label.size() > 3 &&
            c.label.compare(c.label.size() - 3, 3, "/No") == 0 &&
            !s.fingerprint.empty()) {
            const Captured &cap = b.captures[i / 4];
            if (fingerprint(encodeResults({cap.result}, nullptr)) !=
                s.fingerprint) {
                s.problems.push_back("replay differs from captured run");
                bad = true;
            }
        }
        // A wrong result is wrong in every pass that produced it.
        failed += bad ? s.executions : s.failures;
        for (const std::string &p : s.problems)
            std::fprintf(stderr, "perfbench: cell %s: %s\n",
                         c.label.c_str(), p.c_str());
    }
    return failed;
}

std::uint64_t
attemptedCells(const Bench &b)
{
    std::uint64_t n = 0;
    for (const CellStats &s : b.stats)
        n += s.executions;
    return n;
}

std::uint64_t
cellAccesses(const CellStats &s)
{
    std::uint64_t n = 0;
    for (const RunResult &r : s.data.results)
        n += r.l1Accesses;
    return n;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Traced run: layer drill-down.

/** Per-layer sums over the cells of one workload. */
struct LayerSums {
    double robotCore = 0, translate = 0, l1 = 0, memsys = 0, prefetch = 0;
    double replayCore = 0, uncore = 0, capture = 0, campaign = 0;
    double trace = 0;
    double replayTotal = 0;     //!< replay/fleet cell seconds
    std::uint64_t translates = 0, l1LoopAccesses = 0;
    std::uint64_t accesses = 0, l1Misses = 0, l2Accesses = 0;
    std::uint64_t l2Misses = 0, l3Traffic = 0;
    std::uint64_t pfIssued = 0, pfUseful = 0;
    std::uint64_t records = 0, captureRecords = 0, captureBytes = 0;
    double saveSeconds = 0, loadSeconds = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t snoops = 0, xbarHops = 0, bankConflicts = 0;
    std::uint64_t rowHits = 0, rowMisses = 0;
    std::uint64_t mismatches = 0;
    double cacheStoreUs = 0, cacheLoadUs = 0;
};

/** Drill-down of one stream on one machine; returns the path seconds. */
struct StreamDrill {
    double translate = 0, l1 = 0, path = 0, pathNoPf = 0;
    PathCounts counts;
};

StreamDrill
drillStream(Bench &b, const CaptureTrace &trace, const MachineSpec &spec,
            sim::Addr bias, const std::string &tag, LayerSums &sum,
            const StreamDrill *noPfReuse = nullptr)
{
    StreamDrill d;
    std::vector<SimAccess> stream;
    std::uint64_t translates = 0, l1acc = 0, l1miss = 0;
    {
        ScopedSpan span(b.spans, "addrmap/" + tag);
        d.translate = translateStream(trace, spec.sys.lineBytes, bias,
                                      stream, &translates);
    }
    {
        ScopedSpan span(b.spans, "cache/" + tag);
        d.l1 = l1Stream(stream, spec.sys, &l1acc, &l1miss);
    }
    stream.clear();
    stream.shrink_to_fit();
    {
        ScopedSpan span(b.spans, "memsystem/" + tag);
        d.path = pathStream(trace, spec, true, bias, &d.counts);
    }
    if (!hasPrefetcher(spec)) {
        d.pathNoPf = d.path;
    } else if (noPfReuse) {
        d.pathNoPf = noPfReuse->pathNoPf;
    } else {
        PathCounts unused;
        ScopedSpan span(b.spans, "memsystem-nopf/" + tag);
        d.pathNoPf = pathStream(trace, spec, false, bias, &unused);
    }
    sum.translate += d.translate;
    sum.l1 += d.l1;
    sum.prefetch += d.path - d.pathNoPf;
    sum.memsys += d.pathNoPf - d.translate - d.l1;
    sum.translates += translates;
    sum.l1LoopAccesses += l1acc;
    sum.accesses += d.counts.l1Accesses;
    sum.l1Misses += d.counts.l1Misses;
    sum.l2Accesses += d.counts.l2Accesses;
    sum.l2Misses += d.counts.l2Misses;
    sum.l3Traffic += d.counts.l3Traffic;
    sum.pfIssued += d.counts.pfIssued;
    sum.pfUseful += d.counts.pfUseful;
    return d;
}

/** Faithfulness: the drill-down must reproduce the cell's counters. */
void
checkDrill(const std::string &tag, const PathCounts &c,
           const RunResult &r, LayerSums &sum)
{
    if (c.l1Accesses == r.l1Accesses && c.l1Misses == r.l1Misses &&
        c.l2Misses == r.l2Misses)
        return;
    ++sum.mismatches;
    std::fprintf(stderr,
                 "perfbench: drill-down %s differs from the cell: l1 "
                 "accesses %llu/%llu, l1 misses %llu/%llu, l2 misses "
                 "%llu/%llu\n",
                 tag.c_str(), (unsigned long long)c.l1Accesses,
                 (unsigned long long)r.l1Accesses,
                 (unsigned long long)c.l1Misses,
                 (unsigned long long)r.l1Misses,
                 (unsigned long long)c.l2Misses,
                 (unsigned long long)r.l2Misses);
}

/** CaptureTrace::save / load round trip in the work directory. */
void
saveLoad(Bench &b, const Captured &cap, LayerSums &sum)
{
    const std::string path = b.args.workDir + "/capture_" +
                             cap.robot->name + ".tcap";
    {
        ScopedSpan span(b.spans, std::string("capture/save/") +
                                     cap.robot->name);
        if (!cap.trace->save(path))
            throw std::runtime_error("capture save failed");
        sum.saveSeconds += span.stop();
    }
    sum.captureBytes += fileBytes(path);
    CaptureTrace loaded;
    {
        ScopedSpan span(b.spans, std::string("capture/load/") +
                                     cap.robot->name);
        std::string err;
        if (!CaptureTrace::load(path, loaded, &err))
            throw std::runtime_error("capture load failed: " + err);
        sum.loadSeconds += span.stop();
    }
    if (loaded.records.size() != cap.trace->records.size())
        throw std::runtime_error("capture round trip lost records");
    fs::remove(path);
}

/** Host seconds of one untimed direct run of @p robot on @p spec. */
double
directSeconds(Bench &b, const RobotEntry &robot, const MachineSpec &spec)
{
    ScopedSpan span(b.spans, std::string("direct/") + robot.name);
    robot.run(spec, b.opt);
    return span.stop();
}

/** ResultCache::store / load of every cell payload (mean microseconds). */
void
campaignCache(Bench &b, const std::vector<std::string> &payloads,
              LayerSums &sum)
{
    const std::string dir = b.args.workDir + "/cache";
    sim::ResultCache cache(dir, workloads::cellSchemaVersion());
    double store = 0, load = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < b.cells.size(); ++i) {
        if (payloads[i].empty())
            continue;
        const CellDef &c = b.cells[i];
        {
            ScopedSpan span(b.spans, "campaign/cache_store");
            cache.store(c.configHash, b.opt.seed, c.label, payloads[i]);
            store += span.stop();
        }
        {
            ScopedSpan span(b.spans, "campaign/cache_load");
            auto hit = cache.load(c.configHash, b.opt.seed, c.label);
            load += span.stop();
            if (!hit || *hit != payloads[i])
                throw std::runtime_error("result cache round trip failed");
        }
        ++n;
    }
    sum.cacheStoreUs = n ? store / double(n) * 1e6 : 0;
    sum.cacheLoadUs = n ? load / double(n) * 1e6 : 0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::vector<Metric>
tracedRun(Bench &b, const std::vector<std::string> &payloads,
          double untracedWall)
{
    const std::string &w = b.args.workload;
    LayerSums sum;
    // Cell spans of the traced pass (the last pass run).
    std::vector<double> cellSec;
    for (const CellStats &s : b.stats)
        cellSec.push_back(s.seconds.back());
    const double wall = b.passSeconds.back();
    const double gather = b.gatherSeconds.back();
    // Campaign self time: what the cell spans hold besides the simulator
    // call (runner bookkeeping), payload encoding, and the gather
    // (journal appends).
    sum.campaign = b.spans.selfSeconds("cell/") +
                   b.spans.seconds("codec/") + gather;

    std::uint64_t cellAcc = 0;
    for (const CellStats &s : b.stats)
        cellAcc += cellAccesses(s);

    if (w == "direct_suite" || w == "traced_suite") {
        const bool traced = w == "traced_suite";
        const auto &suite = workloads::robotSuite();
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const RobotEntry &robot = suite[i];
            const MachineSpec spec = MachineSpec::tartan();
            // The simulator call inside cell i.
            const double robotSec =
                b.spans.seconds(std::string("robot/") + robot.name);
            const double direct = traced
                                      ? directSeconds(b, robot, spec)
                                      : robotSec;
            if (traced) {
                sum.trace += robotSec - direct;
                sum.traceBytes += b.traceBytes[b.cells[i].label];
            }
            Captured cap = captureRobot(b, robot, spec);
            sum.capture += cap.seconds - direct;
            sum.captureRecords += cap.trace->records.size();
            saveLoad(b, cap, sum);
            const StreamDrill d =
                drillStream(b, *cap.trace, spec, 0, robot.name, sum);
            checkDrill(b.cells[i].label, d.counts,
                       b.stats[i].data.results.at(0), sum);
            sum.robotCore += direct - d.path;
        }
    } else if (w == "replay_sweep") {
        for (std::size_t r = 0; r < b.captures.size(); ++r) {
            const Captured &cap = b.captures[r];
            const double direct =
                directSeconds(b, *cap.robot, MachineSpec::baseline());
            sum.capture += cap.seconds - direct;
            sum.captureRecords += cap.trace->records.size();
            saveLoad(b, cap, sum);
            StreamDrill noPf;
            for (int pf = 0; pf < 4; ++pf) {
                const std::size_t i = r * 4 + std::size_t(pf);
                const std::string tag = b.cells[i].label.substr(7);
                const StreamDrill d =
                    drillStream(b, *cap.trace, prefetchSpec(pf), 0, tag,
                                sum, pf ? &noPf : nullptr);
                if (pf == 0)
                    noPf = d;
                checkDrill(b.cells[i].label, d.counts,
                           b.stats[i].data.results.at(0), sum);
                sum.records += cap.trace->records.size();
                sum.replayTotal += cellSec[i];
                sum.replayCore += cellSec[i] - d.path;
            }
        }
    } else {
        for (const Captured &cap : b.captures) {
            const double direct =
                directSeconds(b, *cap.robot, MachineSpec::baseline());
            sum.capture += cap.seconds - direct;
            sum.captureRecords += cap.trace->records.size();
            saveLoad(b, cap, sum);
        }
        for (int mode = 0; mode < 2; ++mode) {
            const MachineSpec spec = fleetSpec(mode == 1);
            const CellStats &cell = b.stats[std::size_t(mode)];
            double solo = 0;
            for (std::size_t j = 0; j < b.captures.size(); ++j) {
                const Captured &cap = b.captures[j];
                const std::string tag = std::string(kFleetModes[mode]) +
                                        "/" + cap.robot->name;
                double s = 0;
                {
                    ScopedSpan span(b.spans, "replay/solo/" + tag);
                    workloads::replayTrace(*cap.trace, spec, b.opt);
                    s = span.stop();
                }
                solo += s;
                const StreamDrill d = drillStream(
                    b, *cap.trace, spec, sim::Addr(j) << 48, tag, sum);
                checkDrill("fleet4/" + tag, d.counts,
                           cell.data.results.at(j), sum);
                sum.replayCore += s - d.path;
                sum.records += cap.trace->records.size();
            }
            sum.uncore += cellSec[std::size_t(mode)] - solo;
            sum.replayTotal += cellSec[std::size_t(mode)];
            const std::vector<std::uint64_t> &u = cell.data.uncore;
            if (u.size() == 14) {
                sum.snoops += u[0];
                sum.xbarHops += u[7];
                sum.rowHits += u[10];
                sum.rowMisses += u[11];
                sum.bankConflicts += u[12];
            }
        }
    }
    campaignCache(b, payloads, sum);

    const double ns = 1e9;
    const double memsysPerMiss =
        ratio((sum.memsys + sum.prefetch) * ns, double(sum.l1Misses));
    const double layers = sum.robotCore + sum.translate + sum.l1 +
                          sum.memsys + sum.prefetch + sum.replayCore +
                          sum.uncore + sum.campaign + sum.trace;
    const double residue = wall - layers;
    const double recs = double(sum.records);
    const double capRecs = double(sum.captureRecords);
    const double mb = 1024.0 * 1024.0;

    std::vector<Metric> m = {
        {"robotics_core.ns_per_access",
         ratio(sum.robotCore * ns, double(cellAcc)), "ns/access"},
        {"robotics_core.self_ms", sum.robotCore * 1e3, "ms"},
        {"addrmap.ns_per_translate",
         ratio(sum.translate * ns, double(sum.translates)),
         "ns/translate"},
        {"addrmap.translates", double(sum.translates), "count"},
        {"addrmap.self_ms", sum.translate * 1e3, "ms"},
        {"cache.l1_ns_per_access",
         ratio(sum.l1 * ns, double(sum.l1LoopAccesses)), "ns/access"},
        {"cache.l1_miss_ratio",
         ratio(double(sum.l1Misses), double(sum.accesses)), "ratio"},
        {"cache.self_ms", sum.l1 * 1e3, "ms"},
        {"memsystem.ns_per_access",
         ratio((sum.translate + sum.l1 + sum.memsys + sum.prefetch) * ns,
               double(sum.accesses)),
         "ns/access"},
        {"memsystem.ns_per_l1_miss", memsysPerMiss, "ns/miss"},
        {"memsystem.l2_miss_ratio",
         ratio(double(sum.l2Misses), double(sum.l2Accesses)), "ratio"},
        {"memsystem.l3_traffic", double(sum.l3Traffic), "count"},
        {"memsystem.self_ms", sum.memsys * 1e3, "ms"},
        {"prefetch.issued", double(sum.pfIssued), "count"},
        {"prefetch.useful_ratio",
         ratio(double(sum.pfUseful), double(sum.pfIssued)), "ratio"},
        {"prefetch.ns_per_issue",
         ratio(sum.prefetch * ns, double(sum.pfIssued)), "ns/issue"},
        {"prefetch.self_ms", sum.prefetch * 1e3, "ms"},
        {"replay.ns_per_record", ratio(sum.replayTotal * ns, recs),
         "ns/record"},
        {"replay.records", recs, "count"},
        {"replay_core.ns_per_record", ratio(sum.replayCore * ns, recs),
         "ns/record"},
        {"replay_core.self_ms", sum.replayCore * 1e3, "ms"},
        {"uncore.extra_ns_per_access",
         w == "fleet4" ? ratio(sum.uncore * ns, double(cellAcc)) : 0.0,
         "ns/access"},
        {"uncore.snoops", double(sum.snoops), "count"},
        {"uncore.xbar_hops", double(sum.xbarHops), "count"},
        {"uncore.bank_conflicts", double(sum.bankConflicts), "count"},
        {"uncore.row_hit_ratio",
         ratio(double(sum.rowHits), double(sum.rowHits + sum.rowMisses)),
         "ratio"},
        {"uncore.self_ms", sum.uncore * 1e3, "ms"},
        {"capture.encode_ns_per_record", ratio(sum.capture * ns, capRecs),
         "ns/record"},
        {"capture.bytes_per_record",
         ratio(double(sum.captureBytes), capRecs), "B/record"},
        {"capture.save_mb_per_s",
         ratio(double(sum.captureBytes) / mb, sum.saveSeconds), "MB/s"},
        {"capture.load_mb_per_s",
         ratio(double(sum.captureBytes) / mb, sum.loadSeconds), "MB/s"},
        {"capture.self_ms", sum.capture * 1e3, "ms"},
        {"campaign.journal_append_us",
         ratio(gather * 1e6, double(b.cells.size())), "us"},
        {"campaign.cache_store_us", sum.cacheStoreUs, "us"},
        {"campaign.cache_load_us", sum.cacheLoadUs, "us"},
        {"campaign.cells", double(b.cells.size()), "count"},
        {"campaign.self_ms", sum.campaign * 1e3, "ms"},
        {"trace.overhead_ns_per_access",
         ratio(sum.trace * ns, double(cellAcc)), "ns/access"},
        {"trace.bytes_written", double(sum.traceBytes), "B"},
        {"trace.self_ms", sum.trace * 1e3, "ms"},
        {"residue.ms", residue * 1e3, "ms"},
        {"residue.share", ratio(residue, wall), "ratio"},
        {"spans.overhead_ratio", ratio(wall, untracedWall), "ratio"},
        {"drilldown.mismatches", double(sum.mismatches), "count"},
    };

    // Human-readable layer table (the last stdout line stays the JSON).
    std::printf("perfbench %s seed %llu: traced pass wall %.3f s "
                "(untraced %.3f s), cells %zu\n",
                w.c_str(), (unsigned long long)b.args.seed, wall,
                untracedWall, b.cells.size());
    std::printf("  %-14s %10s %7s\n", "layer", "self ms", "share");
    const std::pair<const char *, double> rows[] = {
        {"robotics_core", sum.robotCore}, {"addrmap", sum.translate},
        {"cache", sum.l1},                {"memsystem", sum.memsys},
        {"prefetch", sum.prefetch},       {"replay_core", sum.replayCore},
        {"uncore", sum.uncore},           {"campaign", sum.campaign},
        {"trace", sum.trace},             {"residue", residue},
    };
    for (const auto &[name, sec] : rows)
        std::printf("  %-14s %10.1f %6.1f%%\n", name, sec * 1e3,
                    100.0 * ratio(sec, wall));
    std::printf("  capture (set-up, outside the cell wall): %.1f ms\n",
                sum.capture * 1e3);
    std::printf("  waiting time: not applicable (one thread, no queues)\n");
    return m;
}

int
run(const Args &args)
{
    const std::int64_t spawn = args.spawnNs >= 0 ? args.spawnNs : nowNs();
    fs::create_directories(args.workDir);
    Bench b(args);

    // Set-up is measured against the reference kernel run right before
    // and after it, like the timed cells; the first reference run is not
    // part of the set-up.
    const double refBefore = b.reference.run();
    {
        ScopedSpan span(b.spans, "setup");
        setup(b);
    }
    buildCells(b);
    const double setupRaw = double(nowNs() - spawn) * 1e-9 - refBefore;
    const double setupSeconds = setupRaw * kReferenceNominalSeconds /
                                (0.5 * (refBefore + b.reference.run()));
    std::fprintf(stderr, "perfbench: set-up raw %.3f s\n", setupRaw);
    if (args.setupOnly) {
        std::printf("{\"setup_s\": %s}\n", number(setupSeconds).c_str());
        return 0;
    }

    b.cpus = allowedCpus();
    std::vector<std::string> payloads;
    double untracedWall = 0;
    if (args.trace) {
        // One pass without span recording, then the recorded pass.
        SpanLog quiet(false);
        std::swap(quiet, b.spans);
        payloads = runPass(b, false);
        untracedWall = b.passSeconds.back();
        std::swap(quiet, b.spans);
        payloads = runPass(b, false);
    } else {
        const std::int64_t start = nowNs();
        do {
            payloads = runPass(b, true);
        } while (!args.emitFingerprints &&
                 double(nowNs() - start) * 1e-9 < args.seconds);
    }

    const std::uint64_t failed = checkCells(b);
    const std::uint64_t attempted = attemptedCells(b);

    if (args.emitFingerprints) {
        std::string out = "{\"fingerprints\": {";
        for (std::size_t i = 0; i < b.cells.size(); ++i)
            out += (i ? ", \"" : "\"") + b.cells[i].goldenKey + "\": \"" +
                   b.stats[i].fingerprint + "\"";
        std::printf("%s}}\n", out.c_str());
    }

    std::vector<Metric> metrics;
    bool correct = failed == 0;
    if (args.trace) {
        metrics = tracedRun(b, payloads, untracedWall);
        const std::string spanPath =
            args.workDir + "/spans_" + args.workload + ".json";
        b.spans.write(spanPath);
        for (const Metric &m : metrics)
            if (m.name == "drilldown.mismatches" && m.value != 0)
                correct = false;
    } else {
        // Raw host seconds (median per cell) are shown for reference;
        // the metric is the reference-normalised time in seconds at the
        // reference host's speed.
        double raw = median(b.gatherSeconds);
        double rel = medianRelative(b.gatherSeconds, b.gatherReferenceAfter,
                                    b.referenceSeconds);
        std::uint64_t accesses = 0;
        for (std::size_t i = 0; i < b.cells.size(); ++i) {
            const CellStats &s = b.stats[i];
            raw += median(s.seconds);
            const double cellRel = medianRelative(
                s.seconds, s.referenceAfter, b.referenceSeconds);
            rel += cellRel;
            accesses += cellAccesses(s);
            std::string times;
            for (double t : s.seconds)
                times += " " + number(t).substr(0, 6);
            std::fprintf(stderr,
                         "perfbench:   %-24s median %.4f s, %.3f ref:%s\n",
                         b.cells[i].label.c_str(), median(s.seconds),
                         cellRel, times.c_str());
        }
        const double wall = rel * kReferenceNominalSeconds;
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: %zu passes, %zu cells, "
                     "%llu accesses; raw %.3f s, host speed %.3f x "
                     "reference (checksum %llx)\n",
                     args.workload.c_str(), (unsigned long long)args.seed,
                     b.passSeconds.size(), b.cells.size(),
                     (unsigned long long)accesses, raw,
                     kReferenceNominalSeconds / median(b.referenceSeconds),
                     (unsigned long long)b.reference.checksum());
        metrics = {
            {"wall_s", wall, "s"},
            {"maccess_per_s", ratio(double(accesses) / 1e6, wall),
             "Macc/s"},
            {"setup_s", setupSeconds, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    }
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace
} // namespace tartan::perfbench

int
main(int argc, char **argv)
{
    try {
        return tartan::perfbench::run(
            tartan::perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
