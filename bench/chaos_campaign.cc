/**
 * @file
 * Chaos campaign: drive every robot through a sweep of deterministic
 * fault classes (sensor corruption, surrogate glitches, memory-timing
 * chaos) and report how gracefully each one degrades. A robot
 * "survives" a class when its final metrics stay finite and its
 * recovery counters show the degradation machinery actually engaged.
 *
 * Usage:
 *   chaos_campaign [robot-name ...]      # default: all six robots
 *   chaos_campaign --cells [robot ...]   # + cell-crash/cell-hang cells
 *   TARTAN_FAULTS=<spec> chaos_campaign  # single user-supplied plan
 *
 * --cells exercises the campaign-resilience layer itself: two extra
 * cells (first selected robot only) run under `cell:crash=1@400` and
 * `cell:hang=1@400`, which deterministically kill / wedge the cell on
 * its 401st hooked memory access. They are expected to exhaust their
 * retries and be quarantined — excluded from the survival gate, they
 * verify that a dying cell ends up as a manifest failure row instead
 * of aborting the sweep (exit 3 per the campaign exit policy). The
 * hang cell requires a TARTAN_TIMEOUT, since only the watchdog can
 * reclaim a wedged cell.
 *
 * The campaign is deterministic: plans are seeded (default seed 42)
 * and each robot derives its own fault stream from (plan, robot name),
 * so two runs with the same plan produce identical BENCH rows. All
 * (robot, class) cells are independent — each owns its injector and
 * trace session — and execute through a RunPool; the report is
 * formatted after the gather, so TARTAN_JOBS never changes the output.
 */

#include "bench_util.hh"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/logging.hh"

using namespace tartan::bench;
using namespace tartan::workloads;
using tartan::sim::FaultPlan;

namespace {

struct FaultClass {
    const char *name;
    const char *spec;
};

/** The default sweep: one class per fault mechanism. */
const FaultClass kClasses[] = {
    {"sensor-drop", "sensor:drop=0.2"},
    {"sensor-spike", "sensor:spike=0.1@20"},
    {"sensor-nan", "sensor:nan=0.1"},
    {"sensor-noise", "sensor:noise=0.5@0.05"},
    {"surrogate-garbage", "surrogate:garbage=0.3"},
    {"mem-chaos", "mem:spike=0.02@300,blackout=0.01@500"},
};

/**
 * The robot's primary quality metric, compared against the clean run
 * to quantify degradation.
 */
const char *
primaryMetric(const std::string &robot)
{
    if (robot == "DeliBot")
        return "locErrorCells";
    if (robot == "PatrolBot")
        return "ekfError";
    if (robot == "MoveBot")
        return "pathLength";
    if (robot == "HomeBot")
        return "mapPoints";
    return "planCost"; // FlyBot, CarriBot
}

double
metricOr(const RunResult &res, const std::string &key, double fallback)
{
    const auto it = res.metrics.find(key);
    return it == res.metrics.end() ? fallback : it->second;
}

bool
allMetricsFinite(const RunResult &res)
{
    for (const auto &[key, val] : res.metrics)
        if (!std::isfinite(val))
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReporter rep("chaos_campaign",
                      "graceful degradation: every robot survives >= 3 "
                      "fault classes with finite metrics and engaged "
                      "recovery paths");

    // Single-plan mode: a user-supplied TARTAN_FAULTS spec replaces the
    // default class sweep.
    std::vector<FaultClass> classes;
    std::string env_spec;
    if (auto env_plan = FaultPlan::fromEnv()) {
        env_spec = env_plan->spec();
        classes.push_back(FaultClass{"env", env_spec.c_str()});
        rep.faultPlan(env_spec, env_plan->seed());
    } else {
        classes.assign(std::begin(kClasses), std::end(kClasses));
    }
    const std::size_t required = std::min<std::size_t>(3, classes.size());

    rep.config("machine", "tartan");
    rep.config("tier", "approximate");
    rep.config("scale", 0.5);
    rep.config("seed", 42.0);
    rep.config("requiredSurvivedClasses", double(required));
    for (const FaultClass &fc : classes)
        rep.config(std::string("class.") + fc.name, fc.spec);

    // Optional positional robot filter; --cells turns on the
    // self-test cells for the resilience layer.
    std::vector<std::string> filter;
    bool cells_mode = false;
    for (int a = 1; a < argc; ++a) {
        if (std::string(argv[a]) == "--cells")
            cells_mode = true;
        else
            filter.emplace_back(argv[a]);
    }
    const FaultClass kCellClasses[] = {
        {"cell-crash", "cell:crash=1@400"},
        {"cell-hang", "cell:hang=1@400"},
    };
    if (cells_mode && !(tartan::sim::RunEnv::get().timeoutSec > 0.0))
        TARTAN_FATAL("chaos: --cells includes a hang cell; set "
                     "TARTAN_TIMEOUT so the watchdog can reclaim it");
    auto selected = [&](const std::string &name) {
        if (filter.empty())
            return true;
        for (const std::string &f : filter)
            if (f == name)
                return true;
        return false;
    };

    std::printf("%-10s %-18s %10s %10s %12s %8s\n", "robot", "class",
                "injected", "recovered", "degradation", "status");

    const MachineSpec spec = MachineSpec::tartan();

    // Submit the whole campaign — per selected robot, the clean
    // baseline followed by one run per fault class. Trace sessions are
    // created here on the main thread (so manifest order is
    // deterministic); the fault injector is created *inside* the
    // closure, so a watchdog retry restarts the fault stream from the
    // beginning instead of resuming it mid-way — the re-attempt is the
    // byte-identical re-execution the resilience layer assumes.
    const auto fault_cell = [&rep, &spec](const std::string &label,
                                          RobotFn run, std::string robot,
                                          std::string fault_spec) {
        Cell<RunResult> c;
        c.label = label;
        // The fault spec is invisible to the machine/options hash, so
        // it rides in as salt: two classes over the same machine must
        // never share a resume or cache entry.
        c.configHash = cellConfigHash(
            label, spec, options(SoftwareTier::Approximate, 0.5),
            fault_spec);
        c.seed = 42;
        std::shared_ptr<tartan::sim::TraceSession> trace =
            rep.makeTrace(label);
        c.fn = [run, spec, robot = std::move(robot),
                fault_spec = std::move(fault_spec), trace]() {
            FaultPlan plan;
            std::string perr;
            if (!FaultPlan::parse(fault_spec, plan, &perr))
                TARTAN_FATAL("chaos: bad spec '%s': %s",
                             fault_spec.c_str(), perr.c_str());
            std::shared_ptr<tartan::sim::FaultInjector> inj =
                plan.makeInjector(robot);
            WorkloadOptions opt = options(SoftwareTier::Approximate, 0.5);
            opt.faults = inj.get();
            opt.trace = trace.get();
            RunResult res = run(spec, opt);
            if (trace)
                trace->finalize();
            return res;
        };
        return c;
    };

    RunPool pool;
    std::vector<Cell<RunResult>> jobs;
    bool any_selected = false;
    std::string first_robot;
    RobotFn first_run = nullptr;
    for (const auto &robot : robotSuite()) {
        const std::string name(robot.name);
        if (!selected(name))
            continue;
        any_selected = true;
        if (first_robot.empty()) {
            first_robot = name;
            first_run = robot.run;
        }

        // Clean baseline (no injector: the null-hook path).
        jobs.push_back(cell(rep, name + "_clean", robot.run, spec,
                            options(SoftwareTier::Approximate, 0.5)));

        for (const FaultClass &fc : classes) {
            FaultPlan plan;
            std::string perr;
            if (!FaultPlan::parse(fc.spec, plan, &perr))
                TARTAN_FATAL("chaos: bad spec '%s': %s", fc.spec,
                             perr.c_str());
            jobs.push_back(fault_cell(name + "_" + fc.name, robot.run,
                                      name, fc.spec));
        }
    }
    if (!any_selected)
        TARTAN_FATAL("chaos: no robot matches the filter");

    // The resilience self-test cells ride at the tail so the per-robot
    // result indexing above them is untouched.
    std::size_t chaos_cells = 0;
    if (cells_mode) {
        for (const FaultClass &fc : kCellClasses) {
            jobs.push_back(fault_cell(first_robot + "_" + fc.name,
                                      first_run, first_robot, fc.spec));
            ++chaos_cells;
        }
    }
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::size_t min_survived = classes.size();
    std::size_t r = 0;
    for (const auto &robot : robotSuite()) {
        const std::string name(robot.name);
        if (!selected(name))
            continue;

        const RunResult &clean = results[r++];
        const std::string quality_key = primaryMetric(name);
        const double clean_q = metricOr(clean, quality_key, 0.0);
        rep.kernelMetric(name, "cleanQuality", clean_q);
        reportRun(rep, name + "/clean", clean);
        reportCpi(rep, name + "/clean", clean);

        std::size_t survived = 0;
        for (const FaultClass &fc : classes) {
            const RunResult &res = results[r++];
            const double injected =
                metricOr(res, "faultsInjected", 0.0);
            const double recovered = metricOr(res, "recoveries", 0.0);
            const double faulty_q = metricOr(res, quality_key, 0.0);
            const double degradation =
                std::isfinite(faulty_q)
                    ? std::abs(faulty_q - clean_q) /
                          std::max(std::abs(clean_q), 1e-9)
                    : HUGE_VAL;
            const bool finite = allMetricsFinite(res);
            const bool ok = finite && recovered > 0.0;
            survived += ok ? 1 : 0;

            const std::string row = name + "/" + fc.name;
            rep.kernelMetric(row, "faultsInjected", injected);
            rep.kernelMetric(row, "recoveries", recovered);
            rep.kernelMetric(row, "qualityDegradation",
                             std::isfinite(degradation) ? degradation
                                                        : -1.0);
            rep.kernelMetric(row, "wallCycles", double(res.wallCycles));
            rep.kernelMetric(row, "survived", ok ? 1.0 : 0.0);
            // Fault-class runs carry a 'fault' CPI category: the stack
            // shows where injected latency spikes landed.
            reportCpi(rep, row, res);

            std::printf("%-10s %-18s %10.0f %10.0f %11.1f%% %8s\n",
                        name.c_str(), fc.name, injected, recovered,
                        100.0 * degradation,
                        !finite ? "DIED" : (ok ? "ok" : "benign"));
        }
        rep.kernelMetric(name, "survivedClasses", double(survived));
        min_survived = std::min(min_survived, survived);
        std::printf("%-10s survived %zu/%zu classes\n\n", name.c_str(),
                    survived, classes.size());
    }

    // The resilience self-test cells: quarantined cells come back as
    // default placeholders (wallCycles == 0). They are excluded from
    // the survival gate; their verdict is the exit policy below.
    if (cells_mode) {
        std::printf("-- resilience self-test cells (expected to be "
                    "quarantined) --\n");
        for (std::size_t c = 0; c < chaos_cells; ++c) {
            const FaultClass &fc = kCellClasses[c];
            const RunResult &res = results[r++];
            const bool quarantined = res.wallCycles == 0;
            std::printf("%-10s %-18s %30s\n", first_robot.c_str(),
                        fc.name,
                        quarantined ? "quarantined" : "UNEXPECTEDLY OK");
            rep.kernelMetric(first_robot + "/" + fc.name, "quarantined",
                             quarantined ? 1.0 : 0.0);
        }
    }

    rep.metric("minSurvivedClasses", double(min_survived));
    rep.note("survived = all final metrics finite AND recoveries > 0; "
             "'benign' = finite metrics but no recovery path engaged "
             "(fault class does not reach this robot)");

    if (min_survived < required) {
        std::printf("FAIL: a robot survived only %zu/%zu classes "
                    "(need >= %zu)\n",
                    min_survived, classes.size(), required);
        return 1;
    }
    std::printf("PASS: every robot survived >= %zu fault classes\n",
                required);
    // Quarantined cells (the --cells self-test, or a genuinely dying
    // robot) surface through the campaign exit policy: the manifest is
    // complete, the exit code says it contains placeholders.
    return campaignExit(rep);
}
