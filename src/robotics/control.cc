/**
 * @file
 * Controller implementations.
 */

#include "robotics/control.hh"

#include <cmath>

namespace tartan::robotics {

double
PurePursuit::steer(Mem &mem, const Pose2 &pose)
{
    // Advance the target index to the first waypoint beyond lookahead.
    while (targetIdx + 1 < waypoints.size()) {
        const Vec2 &wp = waypoints[targetIdx];
        mem.loadv(&wp.x, control_pc::path);
        const double d = dist2(pose.x, pose.y, wp.x, wp.y);
        mem.exec(6);
        if (d >= lookahead)
            break;
        ++targetIdx;
    }
    const Vec2 &target = waypoints[targetIdx];
    // Transform into the robot frame and compute curvature.
    const double dx = target.x - pose.x;
    const double dy = target.y - pose.y;
    const double lx = std::cos(pose.theta) * dx + std::sin(pose.theta) * dy;
    const double ly =
        -std::sin(pose.theta) * dx + std::cos(pose.theta) * dy;
    mem.exec(12);
    const double l2 = lx * lx + ly * ly;
    if (l2 < 1e-9)
        return 0.0;
    return 2.0 * ly / l2;
}

double
Mpc::rollout(Mem &mem, const std::vector<Vec3> &controls, const Vec3 &pos,
             const Vec3 &vel, const Vec3 &target,
             std::vector<Vec3> *grad) const
{
    Vec3 p = pos;
    Vec3 v = vel;
    double cost = 0.0;
    std::vector<Vec3> positions(cfg.horizon);
    for (std::uint32_t k = 0; k < cfg.horizon; ++k) {
        v = v + controls[k] * cfg.dt;
        p = p + v * cfg.dt;
        positions[k] = p;
        const Vec3 err = p - target;
        cost += err.dot(err) +
                cfg.effortWeight * controls[k].dot(controls[k]);
        mem.exec(30);
    }
    if (grad) {
        // Backward sweep: dCost/du_k via the linear dynamics chain.
        grad->assign(cfg.horizon, Vec3{});
        Vec3 carry{};
        for (std::uint32_t k = cfg.horizon; k-- > 0;) {
            const Vec3 err = positions[k] - target;
            carry = carry + err * 2.0;
            // Position at step j >= k moves by (j - k + 1) dt^2 per unit
            // of control u_k; fold into a running sum.
            (*grad)[k] = carry * (cfg.dt * cfg.dt) +
                         controls[k] * (2.0 * cfg.effortWeight);
            mem.exec(18);
        }
    }
    return cost;
}

Vec3
Mpc::solve(Mem &mem, const Vec3 &pos, const Vec3 &vel, const Vec3 &target,
           double *predicted_cost)
{
    std::vector<Vec3> controls(cfg.horizon);
    std::vector<Vec3> grad;
    double cost = 0.0;
    for (std::uint32_t it = 0; it < cfg.descentSteps; ++it) {
        cost = rollout(mem, controls, pos, vel, target, &grad);
        for (std::uint32_t k = 0; k < cfg.horizon; ++k) {
            controls[k] = controls[k] - grad[k] * cfg.learningRate;
            mem.exec(6);
        }
    }
    if (predicted_cost)
        *predicted_cost = cost;
    return controls.front();
}

Dmp::Dmp(std::uint32_t basis_count, double tau)
    : basisCount(basis_count), tau(tau), weights(basis_count, 0.0),
      centers(basis_count), widths(basis_count)
{
    for (std::uint32_t b = 0; b < basisCount; ++b) {
        centers[b] = std::exp(-alphaPhase * b /
                              static_cast<double>(basisCount));
        widths[b] = basisCount * basisCount / (centers[b] * 2.0);
    }
}

double
Dmp::forcing(Mem &mem, double phase) const
{
    double num = 0.0;
    double den = 1e-10;
    for (std::uint32_t b = 0; b < basisCount; ++b) {
        const double c = mem.loadv(&centers[b], control_pc::dmp);
        const double h = widths[b];
        const double psi = std::exp(-h * (phase - c) * (phase - c));
        num += psi * mem.loadv(&weights[b], control_pc::dmp);
        den += psi;
        mem.exec(8);
    }
    return num / den * phase;
}

void
Dmp::learn(Mem &mem, const std::vector<double> &demo, double dt)
{
    if (demo.size() < 3)
        return;
    const double start = demo.front();
    const double goal = demo.back();
    // Locally-weighted regression of the required forcing term.
    std::vector<double> num(basisCount, 0.0), den(basisCount, 1e-10);
    double phase = 1.0;
    for (std::size_t k = 1; k + 1 < demo.size(); ++k) {
        const double acc = (demo[k + 1] - 2 * demo[k] + demo[k - 1]) /
                           (dt * dt);
        const double velv = (demo[k + 1] - demo[k - 1]) / (2 * dt);
        const double f_target =
            tau * tau * acc - alpha * (beta * (goal - demo[k]) -
                                       tau * velv);
        const double denom = phase * (goal - start);
        const double f_norm =
            std::fabs(denom) > 1e-9 ? f_target / denom : 0.0;
        for (std::uint32_t b = 0; b < basisCount; ++b) {
            const double psi = std::exp(
                -widths[b] * (phase - centers[b]) * (phase - centers[b]));
            num[b] += psi * f_norm;
            den[b] += psi;
            mem.exec(7);
        }
        phase += dt * (-alphaPhase * phase) / tau;
        mem.exec(16);
    }
    for (std::uint32_t b = 0; b < basisCount; ++b)
        weights[b] = num[b] / den[b];
}

std::vector<double>
Dmp::rollout(Mem &mem, double start, double goal, double dt,
             std::uint32_t steps)
{
    std::vector<double> out;
    out.reserve(steps);
    double y = start;
    double v = 0.0;
    double phase = 1.0;
    for (std::uint32_t k = 0; k < steps; ++k) {
        const double f = forcing(mem, phase) * (goal - start);
        const double acc =
            (alpha * (beta * (goal - y) - v) + f) / (tau * tau);
        v += acc * dt * tau;
        y += v * dt / tau;
        phase += dt * (-alphaPhase * phase) / tau;
        out.push_back(y);
        mem.exec(16);
    }
    return out;
}

Vec2
greedyStep(Mem &mem, const Vec2 &pos, const Vec2 &goal, double step_len)
{
    const Vec2 diff = goal - pos;
    const double n = diff.norm();
    mem.exec(8);
    if (n < 1e-9 || n < step_len)
        return goal;
    return pos + diff * (step_len / n);
}

} // namespace tartan::robotics
