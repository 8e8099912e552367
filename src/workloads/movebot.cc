/**
 * @file
 * MoveBot: a LoCoBot-like arm. RRT planning in 5-DoF configuration
 * space; cuboid-cuboid collision detection (CCCD) sharded over 8
 * threads, which moves the bottleneck to the nearest-neighbour search
 * of RRT (~45% in the paper). PID control. Threads: 1 -> 8 -> 1.
 */

#include "workloads/robots.hh"

#include <algorithm>
#include <cmath>

#include "robotics/control.hh"
#include "robotics/kdtree.hh"
#include "robotics/lsh.hh"
#include "robotics/rrt.hh"

namespace tartan::workloads {

using namespace tartan::robotics;

namespace {

/** Forward-kinematics-lite: 5-DoF configuration to 3 link cuboids. */
void
configToLinks(Mem &mem, const float *q, Cuboid *links)
{
    double x = 0.5, y = 0.5, z = 0.0;
    double yaw = 2.0 * kPi * q[0];
    double pitch = kPi * (q[1] - 0.5);
    for (int link = 0; link < 3; ++link) {
        const double len = 0.12;
        x += len * std::cos(yaw) * std::cos(pitch);
        y += len * std::sin(yaw) * std::cos(pitch);
        z += len * std::sin(pitch);
        links[link].center = Vec3{x, y, z};
        links[link].halfExtent = Vec3{0.05, 0.05, 0.05};
        yaw += (q[2 + link > 4 ? 4 : 2 + link] - 0.5) * kPi;
        pitch *= 0.7;
        mem.execFp(20);
    }
}

std::unique_ptr<NnsBackend>
makeBackend(NnsKind kind, const float *store, std::uint32_t dim,
            std::uint32_t stride, std::uint64_t seed,
            tartan::sim::Arena *arena)
{
    // Bucket width tuned so the paper's accuracy criterion holds
    // (robot operation within 1% of brute force) while RRT's
    // clustered trees still split across buckets.
    LshConfig cfg;
    cfg.bucketWidth = 0.4f;
    cfg.seed = seed;
    switch (kind) {
      case NnsKind::Brute:
        return std::make_unique<BruteForceNns>(store, dim, stride);
      case NnsKind::KdTree:
        return std::make_unique<KdTreeNns>(store, dim, stride, arena);
      case NnsKind::Lsh:
        return std::make_unique<LshNns>(store, dim, cfg, false, stride,
                                        arena);
      case NnsKind::Vln:
        return std::make_unique<LshNns>(store, dim, cfg, true, stride,
                                        arena);
    }
    return nullptr;
}

} // namespace

RunResult
runMoveBot(const MachineSpec &spec, const WorkloadOptions &opt)
{
    RunResult result;
    result.robot = "MoveBot";

    Machine machine(spec, opt);
    auto &core = machine.core();
    auto &mem = machine.mem();
    Pipeline pipeline(core);
    tartan::sim::Rng rng(opt.seed + 2);
    tartan::sim::Arena arena(16ull << 20);
    machine.mapArena(arena);

    const auto k_nns = core.registerKernel("nns");
    const auto k_cccd = core.registerKernel("cccd");
    const auto k_control = core.registerKernel("pid");

    // Obstacle field: cuboids scattered through the workspace with a
    // clearance bubble around the arm base so the configuration space
    // stays navigable (~17% of it is in collision).
    const std::size_t num_obstacles = 36;
    Cuboid *obstacles = arena.alloc<Cuboid>(num_obstacles);
    for (std::size_t o = 0; o < num_obstacles; ++o) {
        Vec3 c{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
               rng.uniform(-0.3, 0.4)};
        while (dist3(c, Vec3{0.5, 0.5, 0.0}) < 0.28)
            c = Vec3{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                     rng.uniform(-0.3, 0.4)};
        obstacles[o].center = c;
        obstacles[o].halfExtent =
            Vec3{rng.uniform(0.015, 0.045), rng.uniform(0.015, 0.045),
                 rng.uniform(0.015, 0.045)};
    }

    RrtConfig rrt_cfg;
    rrt_cfg.dim = 5;
    rrt_cfg.strideFloats = 16;  // 64 B node records (config + caches)
    rrt_cfg.stepSize = 0.08;
    rrt_cfg.goalTolerance = 0.2;
    rrt_cfg.goalBias = 0.15;
    rrt_cfg.maxIterations = std::max<std::uint32_t>(
        200, static_cast<std::uint32_t>(3000 * opt.scale));
    rrt_cfg.maxNodes = rrt_cfg.maxIterations + 1;
    rrt_cfg.exploreFully = true;

    const NnsKind kind =
        opt.nnsExplicit
            ? opt.nns
            : (opt.tier == SoftwareTier::Legacy ? NnsKind::Brute
                                                : NnsKind::Vln);

    // Wrap the backend so NNS work lands in its own kernel bucket.
    struct TaggedNns : NnsBackend {
        NnsBackend &inner;
        tartan::sim::Core &core;
        std::uint32_t kernel;
        TaggedNns(NnsBackend &b, tartan::sim::Core &c, std::uint32_t k)
            : NnsBackend(nullptr, b.dim()), inner(b), core(c), kernel(k)
        {
        }
        void
        insert(Mem &m, std::uint32_t id) override
        {
            ScopedKernel scope(core, kernel);
            inner.insert(m, id);
        }
        std::int32_t
        nearest(Mem &m, const float *q) override
        {
            ScopedKernel scope(core, kernel);
            return inner.nearest(m, q);
        }
        void
        radius(Mem &m, const float *q, float eps,
               std::vector<std::uint32_t> &out) override
        {
            ScopedKernel scope(core, kernel);
            inner.radius(m, q, eps, out);
        }
        const char *name() const override { return inner.name(); }
    };

    // A three-query mission: the arm visits a sequence of poses.
    float waypoints[4][5] = {
        {0.05f, 0.30f, 0.5f, 0.5f, 0.5f},
        {0.92f, 0.85f, 0.15f, 0.8f, 0.2f},
        {0.15f, 0.88f, 0.85f, 0.2f, 0.8f},
        {0.85f, 0.08f, 0.25f, 0.7f, 0.35f},
    };

    // Ensure both endpoints are collision-free: perturb until clear
    // (environment setup, not simulated work).
    {
        Mem untraced;
        Cuboid probe[3];
        auto clear = [&](float *q) {
            configToLinks(untraced, q, probe);
            return !cuboidsCollide(untraced, probe, 3, obstacles, 0,
                                   num_obstacles);
        };
        tartan::sim::Rng fix_rng(opt.seed + 77);
        for (auto &q : waypoints)
            while (!clear(q))
                for (int d = 0; d < 5; ++d)
                    q[d] = static_cast<float>(
                        std::clamp(q[d] + fix_rng.uniform(-0.08, 0.08),
                                   0.05, 0.95));
    }

    // CCCD is sharded over 8 threads; see below for the wall-clock
    // discount that models the parallel planning stage.
    Cuboid links[3];
    auto is_blocked = [&](Mem &m, const float *q) {
        ScopedKernel scope(core, k_cccd);
        configToLinks(m, q, links);
        return cuboidsCollide(m, links, 3, obstacles, 0, num_obstacles);
    };

    tartan::sim::GuardedSensor joint_sensor(opt.faults, -1.0, 1.0);
    double reached = 0.0;
    double total_nodes = 0.0;
    double total_path = 0.0;
    for (int query = 0; query < 3; ++query) {
        ScopedPhase roi(core, "query " + std::to_string(query));
        // Each query grows a fresh tree and index.
        RrtPlanner rrt(rrt_cfg, arena);
        auto nns = makeBackend(kind, rrt.store(), rrt_cfg.dim,
                               rrt.stride(), opt.seed + query, &arena);
        TaggedNns tagged(*nns, core, k_nns);

        RrtResult plan;
        pipeline.serial([&] {
            plan = rrt.plan(mem, tagged, waypoints[query],
                            waypoints[query + 1], rng, is_blocked);
        });

        // --- Control: PID servo along the found path ----------------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_control);
            Pid joint_pid(1.2, 0.1, 0.2);
            for (std::size_t w = 1; w < plan.path.size(); ++w) {
                for (std::uint32_t d = 0; d < rrt_cfg.dim; ++d) {
                    // Joint encoders pass through the fault layer; the
                    // per-joint error is bounded by the unit c-space.
                    const float err = static_cast<float>(joint_sensor.read(
                        rrt.node(plan.path[w])[d] -
                        rrt.node(plan.path[w - 1])[d]));
                    joint_pid.step(mem, err, 0.05);
                }
            }
        });
        reached += plan.reachedGoal ? 1.0 : 0.0;
        total_nodes += plan.nodes;
        total_path += plan.pathLength;
    }

    // The planning stage runs CCCD on 8 threads (4 cores): discount
    // its wall-clock contribution accordingly.
    pipeline.discountKernels({k_cccd}, 4);
    summarize(machine, pipeline, result);

    result.metrics["reachedGoals"] = reached;
    result.metrics["treeNodes"] = total_nodes;
    result.metrics["pathLength"] = total_path;
    if (opt.faults) {
        result.metrics["faultsInjected"] =
            double(opt.faults->stats().total());
        result.metrics["recoveries"] = double(joint_sensor.recoveries());
    }
    return result;
}

} // namespace tartan::workloads
