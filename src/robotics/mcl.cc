/**
 * @file
 * Monte-Carlo localisation implementation.
 */

#include "robotics/mcl.hh"

#include <cmath>

namespace tartan::robotics {

Mcl::Mcl(const MclConfig &config, tartan::sim::Arena &arena)
    : cfg(config),
      px(arena.alloc<double>(config.particles)),
      py(arena.alloc<double>(config.particles)),
      ptheta(arena.alloc<double>(config.particles)),
      weight(arena.alloc<double>(config.particles))
{
}

void
Mcl::init(const Pose2 &guess, double spread, tartan::sim::Rng &rng)
{
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        px[i] = guess.x + rng.gaussian(0.0, spread);
        py[i] = guess.y + rng.gaussian(0.0, spread);
        ptheta[i] = wrapAngle(guess.theta + rng.gaussian(0.0, 0.2));
        weight[i] = 1.0 / cfg.particles;
    }
}

void
Mcl::predict(Mem &mem, double dx, double dy, double dtheta,
             tartan::sim::Rng &rng)
{
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        const double nx =
            mem.loadv(px + i, mcl_pc::particle) + dx +
            rng.gaussian(0.0, cfg.motionNoiseXy);
        const double ny =
            mem.loadv(py + i, mcl_pc::particle) + dy +
            rng.gaussian(0.0, cfg.motionNoiseXy);
        const double nt = wrapAngle(
            mem.loadv(ptheta + i, mcl_pc::particle) + dtheta +
            rng.gaussian(0.0, cfg.motionNoiseTheta));
        mem.storev(px + i, nx, mcl_pc::particle);
        mem.storev(py + i, ny, mcl_pc::particle);
        mem.storev(ptheta + i, nt, mcl_pc::particle);
        mem.exec(12);
    }
}

std::vector<double>
Mcl::scanFrom(Mem &mem, const OccupancyGrid2D &grid, const Pose2 &pose,
              OrientedEngine &engine) const
{
    std::vector<double> ranges(cfg.raysPerScan);
    for (std::uint32_t r = 0; r < cfg.raysPerScan; ++r) {
        const double theta =
            pose.theta + 2.0 * kPi * r / cfg.raysPerScan;
        ranges[r] =
            castRay(mem, grid, pose.x, pose.y, theta, cfg.ray, engine);
    }
    return ranges;
}

void
Mcl::weighParticle(Mem &mem, const OccupancyGrid2D &grid,
                   const std::vector<double> &observed,
                   OrientedEngine &engine, std::uint32_t i)
{
    const double inv2s2 =
        1.0 / (2.0 * cfg.sensorSigma * cfg.sensorSigma);
    const Pose2 hyp{px[i], py[i], ptheta[i]};
    double log_w = 0.0;
    for (std::uint32_t r = 0; r < cfg.raysPerScan; ++r) {
        // A corrupted (non-finite) range carries no information: skip
        // the ray rather than poisoning every particle's weight.
        if (!std::isfinite(observed[r])) {
            ++healthData.skippedRays;
            continue;
        }
        const double theta = hyp.theta + 2.0 * kPi * r / cfg.raysPerScan;
        const double predicted =
            castRay(mem, grid, hyp.x, hyp.y, theta, cfg.ray, engine);
        const double err = predicted - observed[r];
        log_w -= err * err * inv2s2;
        mem.exec(5);
    }
    double w =
        mem.loadv(weight + i, mcl_pc::particle) * std::exp(log_w);
    if (!std::isfinite(w))
        w = 0.0;
    mem.storev(weight + i, w, mcl_pc::particle);
    mem.exec(8);
}

void
Mcl::normalizeWeights(Mem &mem)
{
    double total = 0.0;
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        total += mem.loadv(weight + i, mcl_pc::particle);
        mem.exec(1);
    }
    if (total <= 0.0 || !std::isfinite(total)) {
        // Weight collapse: no particle explains the observation. Reset
        // to uniform so the filter re-localises instead of dividing by
        // zero (or by NaN) and destroying the whole population.
        ++healthData.weightResets;
        for (std::uint32_t i = 0; i < cfg.particles; ++i)
            weight[i] = 1.0 / cfg.particles;
        return;
    }
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        mem.storev(weight + i, weight[i] / total, mcl_pc::particle);
        mem.exec(1);
    }
}

void
Mcl::correct(Mem &mem, const OccupancyGrid2D &grid,
             const std::vector<double> &observed, OrientedEngine &engine)
{
    for (std::uint32_t i = 0; i < cfg.particles; ++i)
        weighParticle(mem, grid, observed, engine, i);
    normalizeWeights(mem);
}

void
Mcl::resample(Mem &mem, tartan::sim::Rng &rng)
{
    std::vector<double> nx(cfg.particles), ny(cfg.particles),
        nt(cfg.particles);
    const double step = 1.0 / cfg.particles;
    double u = rng.uniform() * step;
    double cum = weight[0];
    std::uint32_t j = 0;
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        while (cum < u && j + 1 < cfg.particles) {
            ++j;
            cum += mem.loadv(weight + j, mcl_pc::particle);
            mem.exec(2);
        }
        nx[i] = px[j];
        ny[i] = py[j];
        nt[i] = ptheta[j];
        u += step;
        mem.exec(2);
    }
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        mem.storev(px + i, nx[i], mcl_pc::particle);
        mem.storev(py + i, ny[i], mcl_pc::particle);
        mem.storev(ptheta + i, nt[i], mcl_pc::particle);
        weight[i] = step;
    }
}

Pose2
Mcl::estimate(Mem &mem) const
{
    double sx = 0.0, sy = 0.0, sc = 0.0, ss = 0.0;
    for (std::uint32_t i = 0; i < cfg.particles; ++i) {
        const double w = mem.loadv(weight + i, mcl_pc::particle);
        sx += w * mem.loadv(px + i, mcl_pc::particle);
        sy += w * mem.loadv(py + i, mcl_pc::particle);
        sc += w * std::cos(ptheta[i]);
        ss += w * std::sin(ptheta[i]);
        mem.exec(8);
    }
    return Pose2{sx, sy, std::atan2(ss, sc)};
}

} // namespace tartan::robotics
