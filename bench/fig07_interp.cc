/**
 * @file
 * Fig. 7 reproduction: ray casting with trilinear interpolation under
 * Baseline, OVEC, an Intel-style ray-casting accelerator (zero-cost
 * interpolation + local voxel storage), and OVEC combined with the
 * accelerator — demonstrating the two designs are orthogonal. The four
 * configurations execute through a RunPool; each run builds its own
 * engine so no simulation state is shared between workers.
 */

#include "bench_util.hh"

#include <sstream>

#include "core/ovec.hh"
#include "robotics/geometry.hh"
#include "robotics/raycast.hh"
#include "sim/arena.hh"

using namespace tartan;
using namespace tartan::bench;
using robotics::Mem;

namespace {

/** One configuration's outcome: total cycles + per-kernel counters. */
struct RayRun {
    double cycles = 0.0;
    std::vector<sim::KernelCounters> kernels;
};

} // namespace

namespace tartan::bench {

/**
 * Exact RayRun codec so fig07's cells resume and cache like everyone
 * else's: cycles as a %a hexfloat, kernels through the shared
 * kernel-counter encoder.
 */
template <>
struct CellCodec<RayRun> {
    static std::uint64_t
    schema()
    {
        // Kernel rows embed CPI stacks, so the taxonomy version is
        // folded in next to the layout tag.
        return sim::fnv1a64Mix(sim::fnv1a64("tartan-rayrun-codec-v1"),
                               sim::kCpiTaxonomyVersion);
    }
    static std::string
    encode(const RayRun &run)
    {
        std::ostringstream os;
        os << "{\"v\":\"1\",\"cyc\":\""
           << workloads::encodeDouble(run.cycles) << "\",\"k\":";
        workloads::encodeKernels(os, run.kernels);
        os << "}";
        return os.str();
    }
    static bool
    decode(const std::string &payload, RayRun &out,
           std::string *err = nullptr)
    {
        sim::json::Value doc;
        if (!sim::json::parse(payload, doc, err) || !doc.isObject())
            return false;
        const sim::json::Value *version = doc.find("v");
        const sim::json::Value *cycles = doc.find("cyc");
        const sim::json::Value *kernels = doc.find("k");
        if (!version || !version->isString() || version->string != "1" ||
            !cycles || !cycles->isString() ||
            !workloads::decodeDouble(cycles->string, out.cycles) ||
            !kernels || !workloads::decodeKernels(*kernels, out.kernels)) {
            if (err && err->empty())
                *err = "bad RayRun payload";
            return false;
        }
        return true;
    }
};

} // namespace tartan::bench

namespace {

/** Run the DeliBot-style interpolated ray-casting kernel. */
RayRun
rayCastingTime(bool use_ovec, bool accel)
{
    // Engines are stateful (batch statistics), so every run constructs
    // its own rather than sharing one across concurrent configs.
    robotics::ScalarOrientedEngine scalar;
    core::OvecEngine ovec;
    robotics::OrientedEngine &engine =
        use_ovec ? static_cast<robotics::OrientedEngine &>(ovec)
                 : scalar;

    sim::SysConfig sys_cfg;
    sys_cfg.lineBytes = 32;
    sim::System sys(sys_cfg);
    Mem mem(&sys.core());
    sim::Arena arena(16 << 20);
    robotics::OccupancyGrid2D grid(384, 384, arena);
    sim::Rng rng(42);
    grid.makeHeterogeneous(rng, 0.01, 0.04);

    robotics::RayConfig cfg;
    cfg.maxRange = 96;
    cfg.interpolate = true;
    cfg.interpOnAccelerator = accel;
    robotics::LocalVoxelStorage lvs;

    // MCL-style repeated scans: pose hypotheses re-scan the same map
    // neighbourhood, so the working set warms up as in DeliBot.
    for (int round = 0; round < 6; ++round) {
        for (int scan = 0; scan < 8; ++scan) {
            const double ox = 120 + (scan % 4) * 8 + round;
            const double oy = 150 + (scan / 4) * 8;
            for (int ray = 0; ray < 16; ++ray)
                castRay(mem, grid, ox, oy,
                        ray * 2.0 * robotics::kPi / 16.0, cfg, engine,
                        accel ? &lvs : nullptr);
        }
    }
    return RayRun{double(sys.core().cycles()), sys.core().kernels()};
}

} // namespace

int
main()
{
    BenchReporter rep("fig07_interp",
                      "norm. time: B 1.0, OVEC 0.74 (1.36x), Intel 0.52 "
                      "(1.92x), O+I 0.39 (2.56x; 1.33x over Intel "
                      "alone)");
    rep.config("grid", "384x384 occupancy, 32B lines");
    rep.config("configs", "B=scalar O=ovec I=intel-accel O+I=combined");

    RunPool pool;
    std::vector<Cell<RayRun>> jobs;
    const struct { const char *cfg; bool ovec; bool accel; } configs[] = {
        {"B", false, false},
        {"O", true, false},
        {"I", false, true},
        {"O+I", true, true}};
    for (const auto &c : configs) {
        Cell<RayRun> one;
        one.label = c.cfg;
        // Content address: every knob rayCastingTime() bakes into the
        // run, so a kernel change shows up as a config change only if
        // it is reflected here — the codec schema covers the rest.
        one.configHash = sim::fnv1a64(
            std::string("fig07;grid=384x384;lines=32;rays=16;"
                        "rounds=6;scans=8;ovec=") +
            (c.ovec ? "1" : "0") + ";accel=" + (c.accel ? "1" : "0"));
        one.seed = 42;
        one.fn = [ovec = c.ovec, accel = c.accel]() {
            return rayCastingTime(ovec, accel);
        };
        jobs.push_back(std::move(one));
    }
    const std::vector<RayRun> runs = runAll(rep, pool, std::move(jobs));
    const double b = runs[0].cycles, o = runs[1].cycles,
                 i = runs[2].cycles, oi = runs[3].cycles;

    std::printf("%-4s %14s %10s %9s\n", "cfg", "cycles", "norm", "speedup");
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "B", b, 1.0, 1.0);
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "O", o, o / b, b / o);
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "I", i, i / b, b / i);
    std::printf("%-4s %14.0f %10.3f %8.2fx\n", "O+I", oi, oi / b, b / oi);
    std::printf("\nOrthogonality: O+I over I alone = %.2fx "
                "(paper: 1.33x)\n", i / oi);

    for (std::size_t c = 0; c < 4; ++c) {
        rep.kernelMetric(configs[c].cfg, "cycles", runs[c].cycles);
        rep.kernelMetric(configs[c].cfg, "normTime", runs[c].cycles / b);
        rep.kernelMetric(configs[c].cfg, "speedup", b / runs[c].cycles);
        reportCpi(rep, configs[c].cfg, runs[c].kernels);
    }
    rep.metric("orthogonalityOiOverI", i / oi);
    rep.note("paper: O+I over I alone = 1.33x");
    return campaignExit(rep);
}
