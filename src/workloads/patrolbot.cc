/**
 * @file
 * PatrolBot: a Pioneer-3DX-like security robot. Object detection by
 * neural-network inference dominates (~93% in the paper); four threads
 * run inference in parallel with the EKF + pure-pursuit pipeline. The
 * Approximate tier replaces the CNN with PCA(k=50) + a 50/1024/512/1
 * MLP on the NPU (the paper's "native" NPU workload).
 */

#include "workloads/robots.hh"

#include <algorithm>
#include <cmath>

#include "nn/pca.hh"
#include "robotics/control.hh"
#include "robotics/ekf.hh"
#include "robotics/icp.hh"

namespace tartan::workloads {

using namespace tartan::robotics;

namespace {

/** Synthetic camera frame: a flattened 16x16 feature image. */
std::vector<float>
makeImage(tartan::sim::Rng &rng, bool suspicious)
{
    std::vector<float> img(256);
    for (auto &px : img)
        px = static_cast<float>(rng.uniform());
    if (suspicious) {
        // A bright blob pattern the detector keys on.
        for (int y = 5; y < 10; ++y)
            for (int x = 5; x < 10; ++x)
                img[y * 16 + x] += 1.5f;
    }
    return img;
}

} // namespace

RunResult
runPatrolBot(const MachineSpec &spec, const WorkloadOptions &opt)
{
    RunResult result;
    result.robot = "PatrolBot";

    Machine machine(spec, opt);
    auto &core = machine.core();
    auto &mem = machine.mem();
    Pipeline pipeline(core);
    tartan::sim::Rng rng(opt.seed + 1);
    tartan::sim::Rng nn_rng(opt.seed + 11);

    const auto k_cnn = core.registerKernel("inference");
    const auto k_ekf = core.registerKernel("ekf");
    const auto k_control = core.registerKernel("purepursuit");

    // The native CNN stand-in: a dense model whose software execution
    // cost (weight loads + MACs) matches a compact detection network.
    tartan::nn::MlpConfig cnn_cfg;
    cnn_cfg.layers = {256, 512, 256, 1};
    cnn_cfg.sigmoidOutput = true;
    cnn_cfg.loss = tartan::nn::Loss::Bce;
    cnn_cfg.learningRate = 0.02f;
    tartan::nn::Mlp cnn(cnn_cfg, nn_rng);

    // Pre-train the detector offline on a labelled calibration set.
    {
        for (int epoch = 0; epoch < 2; ++epoch) {
            tartan::sim::Rng train_rng(opt.seed + 100 + epoch);
            for (int s = 0; s < 64; ++s) {
                const bool label = s % 2 == 0;
                auto img = makeImage(train_rng, label);
                const float target = label ? 1.0f : 0.0f;
                cnn.trainSample(img, {&target, 1});
            }
        }
    }

    // NPU path: PCA(k=50) + the paper's 50/1024/512/1 classifier.
    const bool use_sw_nn =
        opt.tier == SoftwareTier::Approximate && opt.softwareNeural;
    const bool use_npu = opt.tier == SoftwareTier::Approximate &&
                         machine.npu() && !use_sw_nn;
    const bool use_surrogate = use_npu || use_sw_nn;
    std::unique_ptr<tartan::nn::Pca> pca;
    std::unique_ptr<tartan::nn::Mlp> classifier;
    if (use_surrogate) {
        // Fit PCA on a small calibration set (offline).
        const std::size_t cal = 96;
        std::vector<float> calib;
        calib.reserve(cal * 256);
        for (std::size_t s = 0; s < cal; ++s) {
            auto img = makeImage(nn_rng, s % 2 == 0);
            calib.insert(calib.end(), img.begin(), img.end());
        }
        pca = std::make_unique<tartan::nn::Pca>(calib, cal, 256, 50,
                                                nn_rng, 12);
        tartan::nn::MlpConfig mc;
        mc.layers = {50, 1024, 512, 1};
        mc.loss = tartan::nn::Loss::Bce;
        mc.sigmoidOutput = true;
        mc.learningRate = 0.01f;
        classifier = std::make_unique<tartan::nn::Mlp>(mc, nn_rng);

        // Train on the PCA-reduced calibration set (offline).
        std::vector<float> reduced(50);
        for (int epoch = 0; epoch < 2; ++epoch) {
            for (std::size_t s = 0; s < cal; ++s) {
                pca->transform({calib.data() + s * 256, 256}, reduced);
                const float target = s % 2 == 0 ? 1.0f : 0.0f;
                classifier->trainSample(reduced, {&target, 1});
            }
        }
        if (use_npu)
            machine.npu()->configure(core, *classifier);
    }

    // Patrol route and EKF landmarks.
    std::vector<Vec2> route;
    for (int w = 0; w < 24; ++w)
        route.push_back(Vec2{double(w) * 2.0, 6.0 + 2.0 * ((w / 4) % 2)});
    PurePursuit tracker(route, 3.0);
    std::vector<Vec2> landmarks{{0, 0}, {20, 0}, {40, 12}, {0, 16}};
    Ekf ekf(landmarks);
    Pose2 truth{0.0, 6.0, 0.0};
    ekf.reset(truth, 0.5, 0.1);

    const std::uint32_t frames = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(4 * opt.scale));
    std::uint32_t detections = 0;

    // Degradation bookkeeping: camera frames can be dropped or pixel-
    // corrupted, range-bearing readings pass through guarded sensors,
    // and implausible surrogate scores fall back to the exact software
    // detector.
    tartan::sim::FaultInjector *inj = opt.faults;
    tartan::sim::GuardedSensor range_sensor(inj, 0.0, 1e3);
    tartan::sim::GuardedSensor bearing_sensor(inj, -kPi, kPi);
    std::vector<float> last_img;
    std::uint64_t frame_recoveries = 0;
    std::uint64_t surrogate_fallbacks = 0;

    for (std::uint32_t frame = 0; frame < frames; ++frame) {
        ScopedPhase roi(core, "frame " + std::to_string(frame));
        auto img = makeImage(rng, frame % 2 == 0);
        if (inj) {
            if (inj->dropFrame() && !last_img.empty()) {
                // Camera frame lost: patrol on the previous frame.
                img = last_img;
                ++frame_recoveries;
            } else {
                inj->corruptSamples(img.data(), img.size(), 0.0f, 2.5f);
                frame_recoveries += tartan::sim::sanitizeSamples(
                    img.data(), img.size(), 0.0f, 2.5f);
            }
            last_img = img;
        }

        // --- Perception: the detector (4 threads, overlapped) --------
        pipeline.overlapBegin();
        pipeline.serial([&] {
            ScopedKernel scope(core, k_cnn);
            float score[1];
            if (use_surrogate) {
                std::vector<float> reduced(50);
                // PCA projection runs on the CPU.
                pca->transform(img, reduced);
                for (int c = 0; c < 50; ++c)
                    mem.loadv(img.data() + c * 5, icp_pc::cloud);
                mem.execFp(50 * 256 * 2 / 16);  // vectorised projection
                if (use_npu) {
                    machine.npu()->infer(core, *classifier, reduced,
                                         score);
                    // Plausibility gate: a sigmoid score far outside
                    // [0, 1] means the surrogate glitched — redo the
                    // classification on the exact software path.
                    if (!std::isfinite(score[0]) || score[0] < -0.5f ||
                        score[0] > 1.5f) {
                        classifier->forwardTraced(reduced, score, core,
                                                  icp_pc::cloud);
                        ++surrogate_fallbacks;
                    }
                } else {
                    classifier->forwardTraced(reduced, score, core,
                                              icp_pc::cloud);
                }
            } else {
                cnn.forwardTraced(img, score, core, icp_pc::cloud);
            }
            if (score[0] > 0.5f)
                ++detections;
        });
        pipeline.overlapEnd();

        // --- Localisation: EKF predict + landmark corrections -------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_ekf);
            ekf.predict(mem, 2.0, 0.05, 0.5);
            for (std::size_t lm = 0; lm < landmarks.size(); ++lm) {
                const double dx = landmarks[lm].x - truth.x;
                const double dy = landmarks[lm].y - truth.y;
                const double range = range_sensor.read(
                    std::sqrt(dx * dx + dy * dy) +
                    rng.gaussian(0.0, 0.05));
                const double bearing = bearing_sensor.read(wrapAngle(
                    std::atan2(dy, dx) - truth.theta +
                    rng.gaussian(0.0, 0.01)));
                ekf.correct(mem, lm, range, bearing);
            }
        });

        // --- Control: pure pursuit along the route ------------------
        pipeline.serial([&] {
            ScopedKernel scope(core, k_control);
            const double curvature = tracker.steer(mem, truth);
            truth.theta = wrapAngle(truth.theta + 0.5 * curvature);
            truth.x += 2.0 * std::cos(truth.theta) * 0.5;
            truth.y += 2.0 * std::sin(truth.theta) * 0.5;
            mem.execFp(12);
        });
    }

    // Inference runs on 4 dedicated threads overlapping the pipeline:
    // wall = max(inference / 4, rest) approximated by discounting the
    // inference work to a quarter.
    pipeline.discountOverlap(4);
    summarize(machine, pipeline, result);

    result.metrics["detections"] = detections;
    result.metrics["ekfError"] =
        dist2(ekf.pose().x, ekf.pose().y, truth.x, truth.y);
    if (inj) {
        result.metrics["faultsInjected"] = double(inj->stats().total());
        result.metrics["recoveries"] =
            double(frame_recoveries + surrogate_fallbacks +
                   range_sensor.recoveries() +
                   bearing_sensor.recoveries() + ekf.health().rejected +
                   ekf.health().covResets);
    }
    return result;
}

} // namespace tartan::workloads
