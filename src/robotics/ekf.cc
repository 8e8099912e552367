/**
 * @file
 * EKF implementation (3-state planar localisation).
 */

#include "robotics/ekf.hh"

#include <cmath>

namespace tartan::robotics {

Ekf::Ekf(std::vector<Vec2> lm) : landmarks(std::move(lm)) {}

void
Ekf::reset(const Pose2 &pose, double pos_var, double theta_var)
{
    state = {pose.x, pose.y, pose.theta};
    cov = {pos_var, 0, 0, 0, pos_var, 0, 0, 0, theta_var};
}

void
Ekf::predict(Mem &mem, double v, double w, double dt)
{
    const double th = state[2];
    state[0] += v * dt * std::cos(th);
    state[1] += v * dt * std::sin(th);
    state[2] = wrapAngle(state[2] + w * dt);

    // Jacobian F = I + dF.
    const double fx = -v * dt * std::sin(th);
    const double fy = v * dt * std::cos(th);

    // cov = F cov F^T + Q, exploiting F's sparsity.
    std::array<double, 9> c = cov;
    c[0] += fx * (cov[6] + cov[2]) + fx * fx * cov[8];
    c[1] += fx * cov[7] + fy * cov[2] + fx * fy * cov[8];
    c[2] += fx * cov[8];
    c[3] += fy * cov[6] + fx * cov[5] + fx * fy * cov[8];
    c[4] += fy * (cov[7] + cov[5]) + fy * fy * cov[8];
    c[5] += fy * cov[8];
    c[6] += fx * cov[8];
    c[7] += fy * cov[8];
    cov = c;
    cov[0] += motionNoise * dt;
    cov[4] += motionNoise * dt;
    cov[8] += 0.5 * motionNoise * dt;
    repairDivergence();

    for (double &v2 : cov)
        mem.storev(&v2, v2, ekf_pc::state);
    mem.exec(40);
}

void
Ekf::repairDivergence()
{
    bool bad = false;
    for (double v : state)
        if (!std::isfinite(v))
            bad = true;
    for (double v : cov)
        if (!std::isfinite(v))
            bad = true;
    const double trace = cov[0] + cov[4] + cov[8];
    if (!std::isfinite(trace) || trace > 1e6)
        bad = true;
    if (!bad)
        return;

    // Blown-up or non-finite filter: keep whatever position estimate is
    // still finite and fall back to a high-uncertainty diagonal, i.e.
    // request re-localisation rather than propagate garbage.
    ++healthData.covResets;
    for (double &v : state)
        if (!std::isfinite(v))
            v = 0.0;
    state[2] = wrapAngle(state[2]);
    cov = {1e3, 0, 0, 0, 1e3, 0, 0, 0, 10.0};
}

void
Ekf::correct(Mem &mem, std::size_t id, double range, double bearing)
{
    if (!std::isfinite(range) || !std::isfinite(bearing) || range < 0) {
        ++healthData.rejected;
        return;
    }

    const Vec2 &lm = landmarks[id];
    const double dx = lm.x - state[0];
    const double dy = lm.y - state[1];
    const double q = dx * dx + dy * dy;
    const double r = std::sqrt(q);
    if (r < 1e-9)
        return;

    // Predicted measurement and innovation.
    const double pred_range = r;
    const double pred_bearing = wrapAngle(std::atan2(dy, dx) - state[2]);
    const double ir = range - pred_range;
    const double ib = wrapAngle(bearing - pred_bearing);

    // Measurement Jacobian H (2x3).
    const double h00 = -dx / r, h01 = -dy / r;
    const double h10 = dy / q, h11 = -dx / q, h12 = -1.0;

    // S = H P H^T + R (2x2).
    auto P = [this](int i, int j) { return cov[i * 3 + j]; };
    const double ph0[3] = {
        P(0, 0) * h00 + P(0, 1) * h01,
        P(1, 0) * h00 + P(1, 1) * h01,
        P(2, 0) * h00 + P(2, 1) * h01,
    };
    const double ph1[3] = {
        P(0, 0) * h10 + P(0, 1) * h11 + P(0, 2) * h12,
        P(1, 0) * h10 + P(1, 1) * h11 + P(1, 2) * h12,
        P(2, 0) * h10 + P(2, 1) * h11 + P(2, 2) * h12,
    };
    const double s00 = h00 * ph0[0] + h01 * ph0[1] + measurementNoise;
    const double s01 = h00 * ph1[0] + h01 * ph1[1];
    const double s10 = h10 * ph0[0] + h11 * ph0[1] + h12 * ph0[2];
    const double s11 =
        h10 * ph1[0] + h11 * ph1[1] + h12 * ph1[2] + measurementNoise;
    const double det = s00 * s11 - s01 * s10;
    if (std::fabs(det) < 1e-12)
        return;
    // 5-sigma innovation gate: an observation this implausible under
    // the filter's own uncertainty is treated as an outlier, not fused.
    if (ir * ir > 25.0 * s00 || ib * ib > 25.0 * s11) {
        ++healthData.rejected;
        return;
    }

    const double i00 = s11 / det, i01 = -s01 / det;
    const double i10 = -s10 / det, i11 = s00 / det;

    // Kalman gain K = P H^T S^-1 (3x2) and state update.
    for (int i = 0; i < 3; ++i) {
        const double k0 = ph0[i] * i00 + ph1[i] * i10;
        const double k1 = ph0[i] * i01 + ph1[i] * i11;
        state[static_cast<std::size_t>(i)] += k0 * ir + k1 * ib;
        // Covariance update (Joseph-lite): P -= K H P.
        for (int j = 0; j < 3; ++j) {
            const double hp0 = h00 * P(0, j) + h01 * P(1, j);
            const double hp1 =
                h10 * P(0, j) + h11 * P(1, j) + h12 * P(2, j);
            cov[i * 3 + j] -= k0 * hp0 + k1 * hp1;
        }
    }
    state[2] = wrapAngle(state[2]);
    repairDivergence();
    for (double &v : cov)
        mem.storev(&v, v, ekf_pc::state);
    mem.exec(90);
}

} // namespace tartan::robotics
