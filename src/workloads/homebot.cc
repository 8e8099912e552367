/**
 * @file
 * HomeBot: a Roomba-like vacuum. Point-based fusion for 3D
 * reconstruction; transformation (T) prediction via ICP over NNS
 * matches dominates (~56% in the paper). With the NPU (TRAP tier) the
 * ICP solve is replaced by a 192/32/32/6 neural model. Behaviour-tree
 * planning, simple motion control. Threads: 8 -> 1 -> 1.
 */

#include "workloads/robots.hh"

#include <algorithm>
#include <cmath>

#include "robotics/behavior_tree.hh"
#include "robotics/control.hh"
#include "robotics/icp.hh"
#include "robotics/kdtree.hh"
#include "robotics/lsh.hh"

namespace tartan::workloads {

using namespace tartan::robotics;

namespace {

/**
 * Synthesise a room-scan frame: noisy walls/furniture points. Fills
 * @p cloud in place so callers can reuse one pre-reserved buffer for
 * every frame; a fresh heap vector per frame would make the cloud's
 * address (and hence the translated access stream) depend on allocator
 * history.
 */
void
makeFrame(tartan::sim::Rng &rng, std::size_t points,
          const Transform3 &pose, std::vector<float> &cloud)
{
    cloud.clear();
    cloud.reserve(points * 3);
    for (std::size_t p = 0; p < points; ++p) {
        // Points on room surfaces (box walls plus clutter clusters).
        Vec3 v;
        const double pick = rng.uniform();
        if (pick < 0.5) {
            v = Vec3{rng.uniform(0.0, 8.0), rng.uniform() < 0.5 ? 0.0 : 6.0,
                     rng.uniform(0.0, 2.0)};
        } else if (pick < 0.8) {
            v = Vec3{rng.uniform() < 0.5 ? 0.0 : 8.0,
                     rng.uniform(0.0, 6.0), rng.uniform(0.0, 2.0)};
        } else {
            // Dense clutter cluster (density heterogeneity for ANL).
            v = Vec3{2.0 + rng.uniform(0.0, 0.5),
                     3.0 + rng.uniform(0.0, 0.5),
                     rng.uniform(0.0, 0.6)};
        }
        const Vec3 w = pose.apply(v);
        cloud.push_back(static_cast<float>(w.x + rng.gaussian(0, 0.01)));
        cloud.push_back(static_cast<float>(w.y + rng.gaussian(0, 0.01)));
        cloud.push_back(static_cast<float>(w.z + rng.gaussian(0, 0.01)));
    }
}

/** Map surfels: position plus normal/colour/radius payload. */
inline constexpr std::uint32_t kSurfelStride = 32;

std::unique_ptr<NnsBackend>
makeBackend(NnsKind kind, const float *store, std::uint64_t seed,
            tartan::sim::Arena *arena)
{
    LshConfig cfg;
    cfg.bucketWidth = 3.5f;
    cfg.seed = seed;
    switch (kind) {
      case NnsKind::Brute:
        return std::make_unique<BruteForceNns>(store, 3, kSurfelStride);
      case NnsKind::KdTree:
        return std::make_unique<KdTreeNns>(store, 3, kSurfelStride,
                                           arena);
      case NnsKind::Lsh:
        return std::make_unique<LshNns>(store, 3, cfg, false,
                                        kSurfelStride, arena);
      case NnsKind::Vln:
        return std::make_unique<LshNns>(store, 3, cfg, true,
                                        kSurfelStride, arena);
    }
    return nullptr;
}

} // namespace

RunResult
runHomeBot(const MachineSpec &spec, const WorkloadOptions &opt)
{
    RunResult result;
    result.robot = "HomeBot";

    Machine machine(spec, opt);
    auto &core = machine.core();
    auto &mem = machine.mem();
    Pipeline pipeline(core);
    tartan::sim::Rng rng(opt.seed + 3);
    tartan::sim::Rng nn_rng(opt.seed + 31);
    // Backs the NNS index structures that grow while the run is being
    // traced (kd-tree nodes, LSH buckets), so their placement is a pure
    // function of the insertion sequence.
    tartan::sim::Arena arena(16ull << 20);
    machine.mapArena(arena);

    const auto k_tpred = core.registerKernel("tpred");
    const auto k_fuse = core.registerKernel("fusion");
    const auto k_plan = core.registerKernel("bt");
    const auto k_control = core.registerKernel("drive");

    const std::size_t frame_points = std::max<std::size_t>(
        48, static_cast<std::size_t>(120 * opt.scale));
    const std::uint32_t frames = std::max<std::uint32_t>(
        3, static_cast<std::uint32_t>(5 * opt.scale));

    // Global surfel map with a reserved (stable) store. A prior scan
    // of the room seeds it with a substantial model.
    const std::size_t seed_surfels = std::max<std::size_t>(
        400, static_cast<std::size_t>(1400 * opt.scale));
    std::vector<float> map_points;
    map_points.reserve((seed_surfels + (frames + 2) * frame_points) *
                       kSurfelStride);
    std::vector<float> confidence;
    confidence.reserve(map_points.capacity() / kSurfelStride);

    const NnsKind kind =
        opt.nnsExplicit
            ? opt.nns
            : (opt.tier == SoftwareTier::Legacy ? NnsKind::Brute
                                                : NnsKind::Vln);
    auto map_nns = makeBackend(kind, map_points.data(), opt.seed, &arena);

    // Seed the map with the prior room model (index construction is
    // offline; queries during operation are what gets simulated).
    {
        Mem untraced;
        std::vector<float> seed_frame;
        makeFrame(rng, seed_surfels, Transform3{}, seed_frame);
        for (std::size_t p = 0; p < seed_surfels; ++p) {
            for (std::uint32_t d = 0; d < kSurfelStride; ++d)
                map_points.push_back(d < 3 ? seed_frame[p * 3 + d]
                                           : 0.0f);
            confidence.push_back(1.0f);
            map_nns->insert(untraced, static_cast<std::uint32_t>(p));
        }
    }

    // TRAP: the T-prediction neural model (192/32/32/6).
    std::unique_ptr<tartan::nn::Mlp> tnet;
    const bool use_sw_nn =
        opt.tier == SoftwareTier::Approximate && opt.softwareNeural;
    const bool use_npu = opt.tier == SoftwareTier::Approximate &&
                         machine.npu() && !use_sw_nn;
    const bool use_surrogate = use_npu || use_sw_nn;
    if (use_surrogate) {
        tartan::nn::MlpConfig mc;
        mc.layers = {192, 32, 32, 6};
        mc.loss = tartan::nn::Loss::Mse;
        mc.learningRate = 0.02f;
        tnet = std::make_unique<tartan::nn::Mlp>(mc, nn_rng);
        if (use_npu)
            machine.npu()->configure(core, *tnet);
    }

    IcpConfig icp_cfg;
    icp_cfg.iterations = 2;
    icp_cfg.maxPairDistance = 1.0;

    Transform3 truth_pose;
    double residual_acc = 0.0;
    tartan::sim::FaultInjector *inj = opt.faults;
    // One stable cloud buffer reused for every frame (capacity never
    // exceeded, so data() is constant across the run).
    std::vector<float> cloud;
    cloud.reserve(frame_points * 3);
    std::vector<float> last_cloud;
    last_cloud.reserve(frame_points * 3);
    std::uint64_t recoveries = 0;
    std::size_t fusion_skipped = 0;
    std::uint64_t surrogate_fallbacks = 0;
    for (std::uint32_t frame = 0; frame < frames; ++frame) {
        ScopedPhase roi(core, "frame " + std::to_string(frame));
        // The robot moved a little: frames arrive in a shifted pose.
        truth_pose = makeTransform(0.0, 0.0, 0.03,
                                   Vec3{0.08, 0.05, 0.0})
                         .compose(truth_pose);
        makeFrame(rng, frame_points, truth_pose, cloud);
        if (inj) {
            if (inj->dropFrame() && !last_cloud.empty()) {
                // Depth frame lost: register the previous frame again.
                cloud.assign(last_cloud.begin(), last_cloud.end());
                ++recoveries;
            } else {
                inj->corruptSamples(cloud.data(), cloud.size(), -30.0f,
                                    30.0f);
                // Clamp corrupted coordinates back into the room bounds
                // before they reach the NNS backends (LSH hashes by
                // float->int conversion, undefined for NaN).
                recoveries += tartan::sim::sanitizeSamples(
                    cloud.data(), cloud.size(), -30.0f, 30.0f);
            }
            last_cloud.assign(cloud.begin(), cloud.end());
        }
        // The frame cloud is a producer-consumer buffer between the
        // sensor and the perception stage: WT-managed when enabled.
        // The buffer is reused across frames, so register it once.
        if (spec.wtQueues && frame == 0)
            machine.system().mem().addWriteThroughRange(
                reinterpret_cast<tartan::sim::Addr>(cloud.data()),
                cloud.capacity() * sizeof(float));

        // --- Perception (8 threads): T prediction + fusion ----------
        if (use_surrogate) {
            pipeline.serial([&] {
                ScopedKernel scope(core, k_tpred);
                // The 192-input net registers one 32-point block pair
                // per invocation: cover the frame block by block and
                // average the predicted corrections.
                const std::size_t blocks = (frame_points + 31) / 32;
                float avg[6] = {0, 0, 0, 0, 0, 0};
                std::vector<float> input(192, 0.0f);
                for (std::size_t blk = 0; blk < blocks; ++blk) {
                    for (std::size_t p = 0; p < 32; ++p) {
                        const std::size_t src =
                            (blk * 32 + p) % frame_points;
                        const std::size_t ref =
                            (blk * 32 + p) %
                            (map_points.size() / kSurfelStride);
                        for (int d = 0; d < 3; ++d) {
                            input[p * 3 + d] =
                                mem.loadv(cloud.data() + src * 3 + d,
                                          icp_pc::cloud);
                            input[96 + p * 3 + d] = mem.loadv(
                                map_points.data() +
                                    ref * kSurfelStride + d,
                                icp_pc::cloud);
                        }
                        mem.execFp(6);  // normalisation
                    }
                    float out[6];
                    if (use_npu) {
                        machine.npu()->infer(core, *tnet, input, out);
                        // Plausibility gate: corrections are small pose
                        // deltas; garbage falls back to the software net.
                        bool ok = true;
                        for (float v : out)
                            ok = ok && std::isfinite(v) &&
                                 std::fabs(v) <= 100.0f;
                        if (!ok) {
                            tnet->forwardTraced(input, out, core,
                                                icp_pc::cloud);
                            ++surrogate_fallbacks;
                        }
                    } else {
                        tnet->forwardTraced(input, out, core,
                                            icp_pc::cloud);
                    }
                    for (int k = 0; k < 6; ++k)
                        avg[k] += out[k] / float(blocks);
                    mem.execFp(12);
                }
                // Apply the averaged predicted correction.
                const Transform3 t = makeTransform(
                    avg[0] * 0.01, avg[1] * 0.01, avg[2] * 0.01,
                    Vec3{avg[3] * 0.01, avg[4] * 0.01, avg[5] * 0.01});
                for (std::size_t p = 0; p < frame_points; ++p) {
                    float *sp = cloud.data() + p * 3;
                    const Vec3 moved =
                        t.apply(Vec3{sp[0], sp[1], sp[2]});
                    mem.storev(sp + 0, static_cast<float>(moved.x),
                               icp_pc::cloud);
                    mem.storev(sp + 1, static_cast<float>(moved.y),
                               icp_pc::cloud);
                    mem.storev(sp + 2, static_cast<float>(moved.z),
                               icp_pc::cloud);
                    mem.execFp(18);
                }
            });
        } else {
            pipeline.serial([&] {
                ScopedKernel scope(core, k_tpred);
                auto icp = icpAlign(mem, cloud, frame_points, *map_nns,
                                    map_points.data(), icp_cfg,
                                    kSurfelStride);
                residual_acc += icp.meanResidual;
                recoveries += icp.skippedPoints;
            });
        }

        pipeline.serial([&] {
            ScopedKernel scope(core, k_fuse);
            fusePoints(mem, map_points, confidence, cloud, frame_points,
                       *map_nns, 0.05, kSurfelStride, &fusion_skipped);
        });

        // --- Planning (1 thread): coverage behaviour tree -----------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_plan);
            BtSelector root("root");
            auto seq = std::make_unique<BtSequence>("clean");
            seq->add(std::make_unique<BtAction>(
                "spiral", [&](Mem &m) {
                    m.execFp(40);
                    return BtStatus::Success;
                }));
            seq->add(std::make_unique<BtAction>(
                "edge", [&](Mem &m) {
                    m.execFp(40);
                    return frame % 2 ? BtStatus::Success
                                     : BtStatus::Failure;
                }));
            root.add(std::move(seq));
            root.add(std::make_unique<BtAction>(
                "dock", [&](Mem &m) {
                    m.execFp(20);
                    return BtStatus::Success;
                }));
            root.tick(mem);
        });

        // --- Control (1 thread): drive command ----------------------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_control);
            Pid wheel(0.9, 0.02, 0.05);
            wheel.step(mem, 0.1 * (frame % 3), 0.05);
            mem.execFp(16);
        });
    }

    // Perception runs on 8 threads over 4 cores: discount its wall
    // share (T prediction plus fusion are data-parallel over points).
    pipeline.discountKernels({k_tpred, k_fuse}, 4);
    summarize(machine, pipeline, result);

    result.metrics["meanResidual"] =
        use_surrogate ? 0.0 : residual_acc / frames;
    result.metrics["mapPoints"] =
        static_cast<double>(map_points.size() / kSurfelStride);
    if (inj) {
        result.metrics["faultsInjected"] = double(inj->stats().total());
        result.metrics["recoveries"] =
            double(recoveries + fusion_skipped + surrogate_fallbacks);
    }
    return result;
}

} // namespace tartan::workloads
