/**
 * @file
 * Simulator self-benchmark: host throughput of the per-access pipeline.
 *
 * A simulator is only useful at the scale its own host speed allows
 * (ZSim's core argument), so this driver measures the simulator, not
 * the modeled machine. For every robot it times the direct run and
 * reports host throughput in millions of simulated demand accesses per
 * second. The per-layer split of that time comes from
 * `perfbench --trace 1`, which times the walk that actually runs.
 *
 * It also measures the capture-once/replay-many engine: each robot is
 * captured once, then the replay of its op stream is timed against
 * the direct run. The ratio is the host-time win of one additional
 * sweep point once a capture exists (what TARTAN_REPLAY buys per
 * replayed cell), and every replayed result must be observationally
 * identical to the direct run.
 *
 * Runs are strictly serial (this bench measures host time; concurrent
 * runs would contend for the same cores). Knobs: TARTAN_SELFBENCH_REPS
 * timing repetitions per cell (best-of, default 3) and
 * TARTAN_SELFBENCH_SCALE workload scale (default 1.0).
 *
 * Exits non-zero if any replay diverges from its direct run, making the
 * replay equivalence guarantee CI-enforceable.
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/capture.hh"
#include "sim/env.hh"
#include "workloads/replay.hh"

using namespace tartan::bench;
using namespace tartan::workloads;
using tartan::sim::RunEnv;

namespace {

/** Host seconds elapsed since @p t0. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** One timed cell: best-of-reps host seconds plus the run's result. */
struct TimedRun {
    RunResult result;
    double bestSeconds = 0.0;
};

/** One timed repetition, folded into the running best. */
void
timeRobotOnce(const RobotEntry &robot, const MachineSpec &spec,
              const WorkloadOptions &opt, unsigned rep, TimedRun *timed)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunResult res = robot.run(spec, opt);
    const double sec = secondsSince(t0);
    if (rep == 0 || sec < timed->bestSeconds)
        timed->bestSeconds = sec;
    timed->result = std::move(res);
}

/**
 * Compare every simulated observable of two runs. Host-time fields do
 * not exist in RunResult, so field-for-field equality is exactly the
 * observational-equivalence contract of replay.
 */
std::string
diffResults(const RunResult &a, const RunResult &b)
{
    std::string diff;
    const auto check = [&](const char *field, double va, double vb) {
        if (va != vb) {
            diff += "  ";
            diff += field;
            diff += ": " + std::to_string(va) + " vs " +
                    std::to_string(vb) + "\n";
        }
    };
    check("wallCycles", double(a.wallCycles), double(b.wallCycles));
    check("workCycles", double(a.workCycles), double(b.workCycles));
    check("instructions", double(a.instructions), double(b.instructions));
    check("l1Accesses", double(a.l1Accesses), double(b.l1Accesses));
    check("l1Misses", double(a.l1Misses), double(b.l1Misses));
    check("l2Accesses", double(a.l2Accesses), double(b.l2Accesses));
    check("l2Misses", double(a.l2Misses), double(b.l2Misses));
    check("l3Traffic", double(a.l3Traffic), double(b.l3Traffic));
    check("pfIssued", double(a.pfIssued), double(b.pfIssued));
    check("pfHitsTimely", double(a.pfHitsTimely), double(b.pfHitsTimely));
    check("pfHitsLate", double(a.pfHitsLate), double(b.pfHitsLate));
    check("udmFetchedBytes", double(a.udmFetchedBytes),
          double(b.udmFetchedBytes));
    check("udmUsedBytes", double(a.udmUsedBytes), double(b.udmUsedBytes));
    check("npuInvocations", double(a.npuInvocations),
          double(b.npuInvocations));
    check("npuCommCycles", double(a.npuCommCycles),
          double(b.npuCommCycles));
    if (a.kernels.size() != b.kernels.size()) {
        diff += "  kernel count: " + std::to_string(a.kernels.size()) +
                " vs " + std::to_string(b.kernels.size()) + "\n";
    } else {
        for (std::size_t i = 0; i < a.kernels.size(); ++i) {
            const auto &ka = a.kernels[i];
            const auto &kb = b.kernels[i];
            if (ka.name != kb.name || ka.cycles != kb.cycles ||
                ka.memStallCycles != kb.memStallCycles ||
                ka.instructions != kb.instructions) {
                diff += "  kernel " + ka.name + "/" + kb.name +
                        " counters differ\n";
            }
            // The CPI decomposition is an observable too: replay must
            // charge identical categories.
            if (!(ka.cpi == kb.cpi))
                diff += "  kernel " + ka.name + " CPI stack differs\n";
        }
    }
    if (a.metrics != b.metrics)
        diff += "  quality-metrics map differs\n";
    return diff;
}

} // namespace

int
main()
{
    const RunEnv &env = RunEnv::get();
    const unsigned reps = env.selfbenchReps;
    const double scale = env.selfbenchScale;

    BenchReporter rep("selfbench",
                      "simulator host throughput in M acc/s; replay "
                      "observationally identical to direct runs");
    rep.config("machine", "tartan");
    rep.config("tier", "optimized");
    rep.config("reps", double(reps));
    rep.config("scale", scale);

    const MachineSpec spec = MachineSpec::tartan();
    const WorkloadOptions opt = options(SoftwareTier::Optimized, scale);

    std::printf("%-10s %12s %6s %9s %9s %9s %9s\n", "robot", "accesses",
                "miss", "M acc/s", "capture", "direct", "replay");

    std::vector<double> throughput, replay_ratios;
    bool all_equivalent = true;
    for (const auto &robot : robotSuite()) {
        TimedRun direct;
        for (unsigned r = 0; r < reps; ++r)
            timeRobotOnce(robot, spec, opt, r, &direct);

        // Capture once, then time the replay of the op stream: the
        // host cost of one more sweep point once a capture exists.
        tartan::sim::CaptureSession session(0, opt.seed);
        WorkloadOptions cap_opt = opt;
        cap_opt.capture = &session;
        const auto c0 = std::chrono::steady_clock::now();
        RunResult cap_res = robot.run(spec, cap_opt);
        const double capture_sec = secondsSince(c0);
        session.setRobot(cap_res.robot);
        for (const auto &[mname, mvalue] : cap_res.metrics)
            session.addMetric(mname, mvalue);
        const tartan::sim::CaptureTrace trace = session.take();
        TimedRun replay;
        for (unsigned r = 0; r < reps; ++r) {
            const auto r0 = std::chrono::steady_clock::now();
            RunResult res = replayTrace(trace, spec, opt);
            const double sec = secondsSince(r0);
            if (r == 0 || sec < replay.bestSeconds)
                replay.bestSeconds = sec;
            replay.result = std::move(res);
        }
        const std::string replay_diff =
            diffResults(direct.result, replay.result);
        if (!replay_diff.empty()) {
            all_equivalent = false;
            std::fprintf(stderr,
                         "selfbench: %s replay diverges from direct "
                         "run:\n%s",
                         robot.name, replay_diff.c_str());
        }
        const double replay_ratio =
            speedup(direct.bestSeconds, replay.bestSeconds);
        replay_ratios.push_back(replay_ratio);

        const double accesses = double(direct.result.l1Accesses);
        const double miss_pct =
            accesses > 0
                ? 100.0 * double(direct.result.l1Misses) / accesses
                : 0.0;
        const double macc = direct.bestSeconds > 0
                                ? accesses / direct.bestSeconds * 1e-6
                                : 0.0;
        throughput.push_back(macc);

        std::printf("%-10s %12.0f %5.1f%% %9.2f %8.3fs %8.3fs %8.3fs "
                    "(%.2fx per replayed sweep point)\n",
                    robot.name, accesses, miss_pct, macc, capture_sec,
                    direct.bestSeconds, replay.bestSeconds, replay_ratio);

        const std::string row = robot.name;
        rep.kernelMetric(row, "accesses", accesses);
        rep.kernelMetric(row, "maccPerSec", macc);
        rep.kernelMetric(row, "captureSeconds", capture_sec);
        rep.kernelMetric(row, "directSeconds", direct.bestSeconds);
        rep.kernelMetric(row, "replaySeconds", replay.bestSeconds);
        rep.kernelMetric(row, "replaySpeedup", replay_ratio);
        rep.kernelMetric(row, "replayEquivalent",
                         replay_diff.empty() ? 1.0 : 0.0);
        reportCpi(rep, row, direct.result);
    }

    const double gm_macc = geomean(throughput);
    const double gm_replay = geomean(replay_ratios);
    rep.metric("gmeanMaccPerSec", gm_macc);
    rep.metric("gmeanReplaySpeedup", gm_replay);
    rep.metric("allEquivalent", all_equivalent ? 1.0 : 0.0);
    rep.note("replayed stats identical to direct runs for all robots");

    std::printf("\ngeomean: %.2f M acc/s, replay vs direct %.2fx\n",
                gm_macc, gm_replay);
    if (!all_equivalent) {
        std::fprintf(stderr, "selfbench: REPLAY DIVERGENCE\n");
        return 1;
    }
    return 0;
}
