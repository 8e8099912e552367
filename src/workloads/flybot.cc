/**
 * @file
 * FlyBot: a Pelican-like battery-powered drone doing aerial
 * photography. Anytime A* (epsilon 8 -> 1) in a 3D city grid with a
 * sophisticated heuristic that numerically integrates aerodynamic
 * drag over the remaining climb (74% of execution in the paper). The
 * Approximate tier offloads the heuristic to the NPU under the AXAR
 * supervisor. MPC control. The paper's pipeline runs 1 -> 4 -> 4
 * threads; the wall model charges all three stages as serial sections,
 * with no discount for planning's or control's four threads.
 */

#include "workloads/robots.hh"

#include <algorithm>
#include <cmath>

#include "core/axar.hh"
#include "robotics/control.hh"
#include "robotics/grid.hh"
#include "robotics/raycast.hh"

namespace tartan::workloads {

using namespace tartan::robotics;

namespace {

/** FlyBot's 3D planning world: grid plus drag and wind fields. */
struct Airspace {
    OccupancyGrid3D *grid;
    /** Per-altitude drag-coefficient floor (admissible lower bound). */
    float *dragFloor;
    /** Per-cell wind resistance >= windFloor. */
    float *wind;
    double windFloor;
    std::uint32_t heuristicSamples;

    std::uint32_t w() const { return grid->width(); }
    std::uint32_t h() const { return grid->height(); }
    std::uint32_t d() const { return grid->depth(); }

    void
    decode(std::uint32_t s, std::uint32_t &x, std::uint32_t &y,
           std::uint32_t &z) const
    {
        x = s % w();
        y = (s / w()) % h();
        z = s / (w() * h());
    }

    std::uint32_t
    id(std::uint32_t x, std::uint32_t y, std::uint32_t z) const
    {
        return (z * h() + y) * w() + x;
    }

    /**
     * Exact heuristic: 3D distance scaled by the global wind floor,
     * plus the drag integral over the net climb, sampled numerically
     * along the straight line (the expensive part).
     */
    double
    exactHeuristic(Mem &mem, std::uint32_t s, std::uint32_t gx,
                   std::uint32_t gy, std::uint32_t gz, PcId pc) const
    {
        std::uint32_t x, y, z;
        decode(s, x, y, z);
        const double dx = double(x) - double(gx);
        const double dy = double(y) - double(gy);
        const double dz = double(z) - double(gz);
        const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
        // Numeric integration of the drag floor over the climb.
        double climb = 0.0;
        const double z0 = z, z1 = gz;
        for (std::uint32_t k = 0; k < heuristicSamples; ++k) {
            const double frac =
                (k + 0.5) / static_cast<double>(heuristicSamples);
            const double zz = z0 + (z1 - z0) * frac;
            const auto cell = static_cast<std::size_t>(
                std::clamp(zz, 0.0, d() - 1.0));
            const float drag = mem.loadv(dragFloor + cell, pc);
            if (z1 > z0)
                climb += drag * (z1 - z0) /
                         static_cast<double>(heuristicSamples);
            // Adaptive-quadrature bookkeeping: Simpson weights and the
            // local error estimate evaluated per sample.
            mem.exec(14);
        }
        mem.exec(14);
        return dist * (1.0 + windFloor) + climb;
    }

    /** Edge cost between neighbouring cells (>= the heuristic terms). */
    double
    edgeCost(Mem &mem, std::uint32_t ax, std::uint32_t ay,
             std::uint32_t az, std::uint32_t bx, std::uint32_t by,
             std::uint32_t bz, PcId pc) const
    {
        const double ex = double(ax) - double(bx);
        const double ey = double(ay) - double(by);
        const double ez = double(az) - double(bz);
        const double dist = std::sqrt(ex * ex + ey * ey + ez * ez);
        const float wind_b =
            mem.loadv(wind + grid->indexOf(bx, by, bz), pc);
        double cost = dist * (1.0 + wind_b);
        if (bz > az) {
            // True climb pays the actual (>= floor) drag.
            const float drag = dragFloor[bz];
            cost += (bz - az) * (drag + 0.05);
        }
        mem.exec(12);
        return cost;
    }
};

/**
 * Network input encoding: the paper's six inputs are the start and goal
 * coordinates; they are supplied goal-relative (deltas plus the two
 * altitudes and the planar range), which carries the same information
 * and conditions the small 6/16/16/1 network far better.
 */
void
encodeHeuristicInput(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                     std::uint32_t gx, std::uint32_t gy, std::uint32_t gz,
                     double norm, float in[6])
{
    const double dx = double(x) - double(gx);
    const double dy = double(y) - double(gy);
    const double dz = double(z) - double(gz);
    in[0] = static_cast<float>(dx * norm);
    in[1] = static_cast<float>(dy * norm);
    in[2] = static_cast<float>(dz * norm);
    in[3] = static_cast<float>(z * norm);
    in[4] = static_cast<float>(gz * norm);
    in[5] = static_cast<float>(std::sqrt(dx * dx + dy * dy) * norm);
}

} // namespace

RunResult
runFlyBot(const MachineSpec &spec, const WorkloadOptions &opt)
{
    RunResult result;
    result.robot = "FlyBot";

    Machine machine(spec, opt);
    auto &core = machine.core();
    auto &mem = machine.mem();
    Pipeline pipeline(core);
    tartan::sim::Rng rng(opt.seed + 4);
    tartan::sim::Rng nn_rng(opt.seed + 41);
    tartan::sim::Arena arena(32ull << 20);
    machine.mapArena(arena);

    const auto k_fusion = core.registerKernel("lt");
    const auto k_heur = core.registerKernel("heuristic");
    const auto k_search = core.registerKernel("wastar");
    const auto k_control = core.registerKernel("mpc");

    const auto dim_xy = std::max<std::uint32_t>(
        16, static_cast<std::uint32_t>(36 * std::sqrt(opt.scale)));
    const std::uint32_t dim_z = std::max<std::uint32_t>(8, dim_xy / 2);
    OccupancyGrid3D grid(dim_xy, dim_xy, dim_z, arena);
    grid.makeCity(rng, 14);

    Airspace air;
    air.grid = &grid;
    air.dragFloor = arena.alloc<float>(dim_z);
    air.wind = arena.alloc<float>(grid.cells());
    air.windFloor = 0.2;
    air.heuristicSamples = 96;
    for (std::uint32_t z = 0; z < dim_z; ++z)
        air.dragFloor[z] =
            0.3f + 0.5f * static_cast<float>(z) / dim_z;
    // Structured wind: smooth high-wind blobs over the city so path
    // *choice* matters (anytime iterations genuinely improve the cost).
    {
        struct Blob {
            double x, y, z, amp, inv2s2;
        };
        std::vector<Blob> blobs;
        for (int b = 0; b < 6; ++b) {
            const double sigma = dim_xy * rng.uniform(0.12, 0.25);
            blobs.push_back(Blob{rng.uniform(0.0, dim_xy),
                                 rng.uniform(0.0, dim_xy),
                                 rng.uniform(0.0, dim_z),
                                 rng.uniform(0.6, 1.6),
                                 1.0 / (2.0 * sigma * sigma)});
        }
        for (std::uint32_t z = 0; z < dim_z; ++z)
            for (std::uint32_t y = 0; y < dim_xy; ++y)
                for (std::uint32_t x = 0; x < dim_xy; ++x) {
                    double wv = air.windFloor;
                    for (const Blob &b : blobs) {
                        const double d2 = (x - b.x) * (x - b.x) +
                                          (y - b.y) * (y - b.y) +
                                          (z - b.z) * (z - b.z);
                        wv += b.amp * std::exp(-d2 * b.inv2s2);
                    }
                    air.wind[grid.indexOf(x, y, z)] =
                        static_cast<float>(wv);
                }
    }

    const std::uint32_t sx = 2, sy = 2, sz = dim_z - 3;
    const std::uint32_t gx = dim_xy - 3, gy = dim_xy - 3,
                        gz = dim_z - 4;

    SearchArrays arrays(static_cast<std::uint32_t>(grid.cells()), arena);

    auto expand = [&](Mem &m, std::uint32_t s,
                      std::vector<Successor> &out) {
        ScopedKernel scope(core, k_search);
        std::uint32_t x, y, z;
        air.decode(s, x, y, z);
        static const int dirs[6][3] = {{1, 0, 0},  {-1, 0, 0},
                                       {0, 1, 0},  {0, -1, 0},
                                       {0, 0, 1},  {0, 0, -1}};
        for (const auto &dv : dirs) {
            const std::int64_t nx = x + dv[0];
            const std::int64_t ny = y + dv[1];
            const std::int64_t nz = z + dv[2];
            m.exec(6);
            if (!grid.inBounds(nx, ny, nz))
                continue;
            const auto ux = static_cast<std::uint32_t>(nx);
            const auto uy = static_cast<std::uint32_t>(ny);
            const auto uz = static_cast<std::uint32_t>(nz);
            if (grid.read(m, ux, uy, uz, raycast_pc::map) > kOccupied)
                continue;
            out.push_back(Successor{
                air.id(ux, uy, uz),
                static_cast<float>(air.edgeCost(m, x, y, z, ux, uy, uz,
                                                raycast_pc::map))});
        }
    };

    HeuristicFn exact = [&](Mem &m, std::uint32_t s) {
        ScopedKernel scope(core, k_heur);
        return air.exactHeuristic(m, s, gx, gy, gz, astar_pc::gValue);
    };

    // --- AXAR setup: train the heuristic surrogate ------------------
    std::uint64_t surrogate_fallbacks = 0;
    std::unique_ptr<tartan::nn::Mlp> hnet;
    std::unique_ptr<HeuristicFn> approx;
    const bool use_sw_nn =
        opt.tier == SoftwareTier::Approximate && opt.softwareNeural;
    const bool use_npu = opt.tier == SoftwareTier::Approximate &&
                         machine.npu() && !use_sw_nn;
    if (use_npu || use_sw_nn) {
        tartan::nn::MlpConfig mc;
        mc.layers = {6, 16, 16, 1};
        mc.loss = tartan::nn::Loss::AsymmetricMse;
        mc.asymAlpha = 8.0f;
        mc.gradClip = 2.5f;
        mc.l2Lambda = 0.0005f;
        mc.learningRate = 0.05f;
        hnet = std::make_unique<tartan::nn::Mlp>(mc, nn_rng);

        // Offline training on a map region distinct from the
        // operational area (paper: Freiburg-map subset).
        const double norm = 1.0 / dim_xy;
        const double h_scale =
            1.0 / (dim_xy * 2.0);  // normalise targets into ~[0,1]
        Mem untraced;  // training is offline, not simulated
        const std::uint32_t samples = 4000, epochs = 250;
        std::vector<float> ins, outs;
        for (std::uint32_t i = 0; i < samples; ++i) {
            const std::uint32_t x = static_cast<std::uint32_t>(
                nn_rng.uniformInt(dim_xy));
            const std::uint32_t y = static_cast<std::uint32_t>(
                nn_rng.uniformInt(dim_xy));
            const std::uint32_t z = static_cast<std::uint32_t>(
                nn_rng.uniformInt(dim_z));
            const double target = air.exactHeuristic(
                untraced, air.id(x, y, z), gx, gy, gz, 0);
            float in[6];
            encodeHeuristicInput(x, y, z, gx, gy, gz, norm, in);
            ins.insert(ins.end(), in, in + 6);
            outs.push_back(static_cast<float>(target * h_scale));
        }
        float lr = 0.02f;
        for (std::uint32_t e = 0; e < epochs; ++e) {
            hnet->setLearningRate(lr);
            hnet->trainEpoch(ins, outs, samples);
            lr *= 0.99f;
        }

        if (use_npu)
            machine.npu()->configure(core, *hnet);
        approx = std::make_unique<HeuristicFn>(
            [&, norm, h_scale, use_npu](Mem &m, std::uint32_t s) {
                ScopedKernel scope(core, k_heur);
                std::uint32_t x, y, z;
                air.decode(s, x, y, z);
                float in[6];
                encodeHeuristicInput(x, y, z, gx, gy, gz, norm, in);
                float out[1];
                if (use_npu)
                    machine.npu()->infer(core, *hnet, in, out);
                else
                    hnet->forwardTraced(in, out, core,
                                        astar_pc::gValue);
                m.exec(8);
                // Plausibility gate: normalised heuristics live in
                // ~[0, 1]; a glitched surrogate output falls back to
                // the exact drag integral (AXAR's safety net catches
                // mere overestimates, but not NaNs).
                if (!std::isfinite(out[0]) || out[0] < -1.0f ||
                    out[0] > 4.0f) {
                    ++surrogate_fallbacks;
                    return air.exactHeuristic(m, s, gx, gy, gz,
                                              astar_pc::gValue);
                }
                return std::max(0.0, static_cast<double>(out[0])) /
                       h_scale;
            });
    }

    // --- Perception (1 thread): LT multimodal fusion ----------------
    pipeline.serial([&] {
        ScopedPhase roi(core, "perception");
        ScopedKernel scope(core, k_fusion);
        // Stabilise object positions from two sensor modalities.
        for (int obs = 0; obs < 24; ++obs) {
            mem.loadv(air.wind + (obs * 97) % grid.cells(),
                      raycast_pc::map);
            mem.exec(30);
        }
    });

    // --- Planning: ATA* with/without AXAR (4 threads in the paper;
    // charged serially) ----------------------------------------------
    core::AxarResult plan;
    pipeline.serial([&] {
        ScopedPhase roi(core, "planning");
        plan = core::anytimeAStar(mem, arrays, air.id(sx, sy, sz),
                                  air.id(gx, gy, gz), expand, exact,
                                  approx.get(), core::AxarOptions{});
    });

    // --- Control: MPC along the first waypoints (4 threads in the
    // paper; charged serially) ---------------------------------------
    tartan::sim::GuardedSensor gps_x(opt.faults, 0.0, double(dim_xy));
    tartan::sim::GuardedSensor gps_y(opt.faults, 0.0, double(dim_xy));
    tartan::sim::GuardedSensor gps_z(opt.faults, 0.0, double(dim_z));
    pipeline.serial([&] {
        ScopedPhase roi(core, "control");
        ScopedKernel scope(core, k_control);
        Mpc::Config mpc_cfg;
        Mpc mpc(mpc_cfg);
        Vec3 pos{double(sx), double(sy), double(sz)};
        Vec3 vel{};
        const std::size_t waypoints =
            std::min<std::size_t>(plan.finalPath.size(), 6);
        for (std::size_t wp = 1; wp < waypoints; ++wp) {
            std::uint32_t x, y, z;
            air.decode(plan.finalPath[wp], x, y, z);
            // State feedback runs through guarded altimeter/GPS
            // channels before entering the MPC solve.
            pos = Vec3{gps_x.read(pos.x), gps_y.read(pos.y),
                       gps_z.read(pos.z)};
            mpc.solve(mem, pos, vel,
                      Vec3{double(x), double(y), double(z)});
            pos = Vec3{double(x), double(y), double(z)};
        }
    });

    summarize(machine, pipeline, result);
    result.metrics["planFound"] = plan.found ? 1.0 : 0.0;
    result.metrics["planCost"] = plan.finalCost;
    result.metrics["rollbacks"] = static_cast<double>(plan.rollbacks);
    result.metrics["expansions"] =
        static_cast<double>(plan.totalExpansions);
    if (opt.faults) {
        result.metrics["faultsInjected"] =
            double(opt.faults->stats().total());
        result.metrics["recoveries"] =
            double(surrogate_fallbacks + gps_x.recoveries() +
                   gps_y.recoveries() + gps_z.recoveries());
    }
    for (std::size_t i = 0; i < plan.iterations.size(); ++i) {
        result.metrics["iter" + std::to_string(i) + "Cost"] =
            plan.iterations[i].cost;
        result.metrics["iter" + std::to_string(i) + "Exp"] =
            static_cast<double>(plan.iterations[i].expansions);
    }
    return result;
}

} // namespace tartan::workloads
