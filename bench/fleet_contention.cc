/**
 * @file
 * Fleet contention study: N robots sharing one coherent multi-core
 * machine. Each roster robot is captured at most once (capture-once /
 * replay-many), then the N op streams replay min-cycle-first
 * interleaved through a machine with N private L1/L2 paths, a shared
 * sliced L3 behind a crossbar, MESI snooping between the private
 * hierarchies, and a banked DRAM controller. For every fleet size the
 * driver reports per-core wall cycles, the interference factor versus
 * the same robot running the machine alone, per-core CPI stacks
 * (including the coherence category), and the shared fabric's
 * crossbar/bank/coherence counters — once with the L3 fully shared and
 * once with FCP partitioning the L3 (paper §VIII-D).
 *
 * The solo references and the fleets are campaign cells like every
 * other driver's, so they resume, cache, time out and quarantine
 * under the same TARTAN_* knobs.
 *
 * TARTAN_CORES pins the sweep to one fleet size (the CI smoke runs
 * N=4); default sweeps N in {1, 2, 4, 8}. TARTAN_XBAR_HOP,
 * TARTAN_DRAM_BANKS and TARTAN_COHERENCE_LAT override the uncore
 * knobs.
 */

#include "bench_util.hh"

using namespace tartan::bench;
using namespace tartan::workloads;

namespace {

using tartan::sim::CaptureTrace;
using tartan::sim::Cycles;
using tartan::sim::RunEnv;

/** The machine for one partitioning mode (L3 shared vs FCP-sliced). */
MachineSpec
fleetSpec(bool fcp_at_l3)
{
    MachineSpec spec = MachineSpec::baseline();
    if (fcp_at_l3) {
        spec.sys.fcpEnabled = true;
        spec.sys.fcpAtL3 = true;
    }
    const RunEnv &env = RunEnv::get();
    if (env.xbarHop)
        spec.sys.uncore.xbarHopLatency = env.xbarHop;
    if (env.dramBanks)
        spec.sys.uncore.dramBanks = env.dramBanks;
    if (env.coherenceLat)
        spec.sys.uncore.coherenceLatency = env.coherenceLat;
    return spec;
}

} // namespace

int
main()
{
    BenchReporter rep("fleet_contention",
                      "interference grows with fleet size as robots "
                      "fight for L3 capacity, crossbar slices and DRAM "
                      "banks; FCP partitioning the L3 caps the worst "
                      "per-robot slowdown; coherence stalls stay small "
                      "(disjoint address spaces, no true sharing)");

    const RunEnv &env = RunEnv::get();
    std::vector<unsigned> fleet_sizes;
    if (env.cores)
        fleet_sizes.push_back(env.cores);
    else
        fleet_sizes = {1, 2, 4, 8};
    {
        std::string sizes;
        for (unsigned n : fleet_sizes)
            sizes += (sizes.empty() ? "" : " ") + std::to_string(n);
        rep.config("fleetSizes", sizes);
    }
    rep.config("modes", "shared fcp");
    rep.config("tier", "optimized");
    const MachineSpec knob_echo = fleetSpec(false);
    rep.config("xbarHopLatency",
               std::to_string(knob_echo.sys.uncore.xbarHopLatency));
    rep.config("dramBanks",
               std::to_string(knob_echo.sys.uncore.dramBanks));
    rep.config("coherenceLatency",
               std::to_string(knob_echo.sys.uncore.coherenceLatency));

    const auto &suite = robotSuite();
    const unsigned max_n =
        *std::max_element(fleet_sizes.begin(), fleet_sizes.end());
    const std::size_t roster = std::min<std::size_t>(max_n, suite.size());

    // Each distinct roster robot is captured at most once, by the
    // first cell that needs it; every solo reference and every fleet
    // slot replays the same op stream.
    const WorkloadOptions opt = options(SoftwareTier::Optimized);
    std::vector<std::unique_ptr<CaptureSource>> sources;
    for (std::size_t i = 0; i < roster; ++i)
        sources.push_back(std::make_unique<CaptureSource>(
            suite[i].name, suite[i].run, MachineSpec::baseline(), opt));

    const char *mode_names[] = {"shared", "fcp"};
    RunPool pool;

    // Solo references: each roster robot alone on the single-core
    // machine of each mode (simCores=1 -> no uncore, historical path).
    std::vector<Cell<RunResult>> solo_cells;
    for (int mode = 0; mode < 2; ++mode)
        for (std::size_t i = 0; i < roster; ++i)
            solo_cells.push_back(replayCell(
                *sources[i],
                std::string("solo/") + mode_names[mode] + "/" +
                    suite[i].name,
                suite[i].run, fleetSpec(mode == 1), opt));
    const std::vector<RunResult> solos =
        runAll(rep, pool, std::move(solo_cells));
    const auto solo_wall = [&](int mode, std::size_t slot) {
        return double(solos[mode * roster + slot % roster].wallCycles);
    };

    // Fleet configurations: every (mode, N) pair is one cell. Slot i of
    // an N-robot fleet runs roster robot i % roster on core i; the
    // roster names ride in the salt, since the spec cannot see them.
    std::vector<Cell<FleetOutcome>> fleet_cells;
    for (int mode = 0; mode < 2; ++mode)
        for (unsigned n : fleet_sizes) {
            std::vector<CaptureSource *> fleet;
            std::string salt = "fleet:";
            for (unsigned i = 0; i < n; ++i) {
                fleet.push_back(sources[i % roster].get());
                salt += std::string(i ? "," : "") + suite[i % roster].name;
            }
            const MachineSpec spec = fleetSpec(mode == 1);
            Cell<FleetOutcome> c;
            c.label = std::string(mode_names[mode]) + "/N" +
                      std::to_string(n);
            c.configHash = cellConfigHash(c.label, spec, opt, salt);
            c.seed = opt.seed;
            c.fn = [fleet, spec, opt]() {
                // Each source keeps its capture alive for the sweep.
                std::vector<const CaptureTrace *> traces;
                for (CaptureSource *src : fleet)
                    traces.push_back(src->acquire().get());
                FleetOutcome out;
                out.cores = replayFleet(traces, spec, opt, &out.uncore);
                return out;
            };
            fleet_cells.push_back(std::move(c));
        }
    const std::vector<FleetOutcome> outcomes =
        runAll(rep, pool, std::move(fleet_cells));

    std::printf("%-6s %-7s %-14s %12s %12s %8s %10s\n", "mode", "fleet",
                "core:robot", "wallCycles", "soloCycles", "interf",
                "cohCycles");
    // A quarantined cell reports nothing: a fleet with no cores has no
    // rows, and interference against a solo reference with no wall
    // cycles is NaN (null in the JSON). NaNs stay out of every worst
    // and gmean, so a mode whose fleets all failed reports NaN.
    const double nan = std::nan("");
    std::size_t out_idx = 0;
    for (int mode = 0; mode < 2; ++mode) {
        double mode_worst = nan;
        for (unsigned n : fleet_sizes) {
            const FleetOutcome &out = outcomes[out_idx++];
            if (out.cores.empty())
                continue;
            const std::string tag =
                std::string(mode_names[mode]) + "/N" + std::to_string(n);
            double worst = nan;
            std::vector<double> interfs;
            for (std::size_t c = 0; c < out.cores.size(); ++c) {
                const RunResult &res = out.cores[c];
                const double solo = solo_wall(mode, c);
                const double interf =
                    solo > 0 ? double(res.wallCycles) / solo : nan;
                if (!std::isnan(interf)) {
                    worst = std::fmax(worst, interf);
                    interfs.push_back(interf);
                }
                Cycles coh = 0;
                for (const auto &k : res.kernels)
                    coh += k.cpi[tartan::sim::CpiCat::Coherence];
                std::printf("%-6s %-7u c%zu:%-11s %12llu %12.0f %8.3f "
                            "%10llu\n",
                            mode_names[mode], n, c, res.robot.c_str(),
                            static_cast<unsigned long long>(
                                res.wallCycles),
                            solo, interf,
                            static_cast<unsigned long long>(coh));
                const std::string row = tag + "/c" + std::to_string(c) +
                                        ":" + res.robot;
                reportRun(rep, row, res);
                rep.kernelMetric(row, "interference", interf);
                rep.kernelMetric(row, "coherenceCycles", double(coh));
                reportCpi(rep, row, res);
            }
            const tartan::sim::CoherenceStats &cs = out.uncore.coherence;
            const tartan::sim::XbarStats &xs = out.uncore.xbar;
            const tartan::sim::MemCtrlStats &ms = out.uncore.memctrl;
            std::printf("%-6s %-7u %-14s snoops %llu inval %llu fwd "
                        "%llu xbarHops %llu rowHit %llu/%llu "
                        "bankConfl %llu\n",
                        mode_names[mode], n, "fabric",
                        static_cast<unsigned long long>(cs.snoops),
                        static_cast<unsigned long long>(cs.invalidations),
                        static_cast<unsigned long long>(cs.dirtyForwards),
                        static_cast<unsigned long long>(xs.hops),
                        static_cast<unsigned long long>(ms.rowHits),
                        static_cast<unsigned long long>(ms.rowHits +
                                                        ms.rowMisses),
                        static_cast<unsigned long long>(ms.bankConflicts));
            const std::string frow = tag + "/fabric";
            rep.kernelMetric(frow, "snoops", double(cs.snoops));
            rep.kernelMetric(frow, "invalidations",
                             double(cs.invalidations));
            rep.kernelMetric(frow, "downgrades", double(cs.downgrades));
            rep.kernelMetric(frow, "dirtyForwards",
                             double(cs.dirtyForwards));
            rep.kernelMetric(frow, "upgrades", double(cs.upgrades));
            rep.kernelMetric(frow, "xbarTraversals",
                             double(xs.traversals));
            rep.kernelMetric(frow, "xbarHops", double(xs.hops));
            rep.kernelMetric(frow, "dramReads", double(ms.reads));
            rep.kernelMetric(frow, "dramWrites", double(ms.writes));
            rep.kernelMetric(frow, "rowHits", double(ms.rowHits));
            rep.kernelMetric(frow, "rowMisses", double(ms.rowMisses));
            rep.kernelMetric(frow, "bankConflicts",
                             double(ms.bankConflicts));
            rep.kernelMetric(frow, "conflictCycles",
                             double(ms.conflictCycles));
            rep.kernelMetric(frow, "gmeanInterference",
                             geomean(interfs));
            rep.kernelMetric(frow, "worstInterference", worst);
            mode_worst = std::fmax(mode_worst, worst);
        }
        rep.metric(std::string("worstInterference/") + mode_names[mode],
                   mode_worst);
    }

    rep.note("interference = fleet wall cycles / solo wall cycles per "
             "core; fcp mode partitions the shared L3 with FCP");
    return campaignExit(rep);
}
