/**
 * @file
 * Control-stage kernels of the RoWild robots: PID (MoveBot), pure
 * pursuit (PatrolBot), model-predictive control (FlyBot), dynamic
 * movement primitives (CarriBot), and a greedy local planner (DeliBot).
 */

#ifndef TARTAN_ROBOTICS_CONTROL_HH
#define TARTAN_ROBOTICS_CONTROL_HH

#include <cstdint>
#include <vector>

#include "robotics/geometry.hh"
#include "robotics/trace.hh"

namespace tartan::robotics {

namespace control_pc {
inline constexpr PcId path = 170;
inline constexpr PcId mpc = 171;
inline constexpr PcId dmp = 172;
} // namespace control_pc

/** Scalar PID controller. */
class Pid
{
  public:
    Pid(double kp, double ki, double kd) : kp(kp), ki(ki), kd(kd) {}

    /** One control step; returns the actuation command. */
    double
    step(Mem &mem, double error, double dt)
    {
        integral += error * dt;
        const double derivative = (error - previous) / dt;
        previous = error;
        mem.exec(8);
        return kp * error + ki * integral + kd * derivative;
    }

    void
    reset()
    {
        integral = 0.0;
        previous = 0.0;
    }

  private:
    double kp, ki, kd;
    double integral = 0.0;
    double previous = 0.0;
};

/**
 * Pure-pursuit path tracker: finds the lookahead point on a waypoint
 * path and returns the steering curvature.
 */
class PurePursuit
{
  public:
    PurePursuit(std::vector<Vec2> path, double lookahead)
        : waypoints(std::move(path)), lookahead(lookahead)
    {
    }

    /** Steering curvature for the current pose. */
    double steer(Mem &mem, const Pose2 &pose);

  private:
    std::vector<Vec2> waypoints;
    double lookahead;
    std::size_t targetIdx = 0;
};

/**
 * Finite-horizon model-predictive controller for a point-mass drone:
 * gradient descent on a control sequence minimising tracking error and
 * control effort (FlyBot's control stage).
 */
class Mpc
{
  public:
    struct Config {
        std::uint32_t horizon = 12;
        std::uint32_t descentSteps = 20;
        double dt = 0.1;
        double learningRate = 0.1;
        double effortWeight = 0.05;
    };

    explicit Mpc(const Config &config) : cfg(config) {}

    /**
     * Compute the first acceleration command steering @p pos / @p vel
     * towards @p target. Returns the command; fills @p predicted_cost.
     */
    Vec3 solve(Mem &mem, const Vec3 &pos, const Vec3 &vel,
               const Vec3 &target, double *predicted_cost = nullptr);

  private:
    double rollout(Mem &mem, const std::vector<Vec3> &controls,
                   const Vec3 &pos, const Vec3 &vel, const Vec3 &target,
                   std::vector<Vec3> *grad) const;

    Config cfg;
};

/**
 * Dynamic movement primitive: a second-order attractor with a learned
 * radial-basis forcing term (CarriBot's control stage).
 */
class Dmp
{
  public:
    Dmp(std::uint32_t basis_count, double tau);

    /** Fit the forcing term to a demonstration trajectory. */
    void learn(Mem &mem, const std::vector<double> &demonstration,
               double dt);

    /** Roll out the primitive towards @p goal from @p start. */
    std::vector<double> rollout(Mem &mem, double start, double goal,
                                double dt, std::uint32_t steps);

  private:
    double forcing(Mem &mem, double phase) const;

    std::uint32_t basisCount;
    double tau;
    double alpha = 25.0;
    double beta = 6.25;
    double alphaPhase = 4.0;
    std::vector<double> weights;
    std::vector<double> centers;
    std::vector<double> widths;
};

/**
 * Greedy local planner (DeliBot): pick the neighbouring cell that
 * minimises straight-line distance to the goal; cheap by design.
 */
Vec2 greedyStep(Mem &mem, const Vec2 &pos, const Vec2 &goal,
                double step_len);

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_CONTROL_HH
