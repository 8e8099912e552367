/**
 * @file
 * Rapidly-exploring Random Tree planner in d-dimensional configuration
 * space (MoveBot, paper §III-B).
 *
 * RRT samples configurations, finds the nearest tree node (through a
 * pluggable NNS backend — the planner's bottleneck), extends towards
 * the sample, and validates the motion with cuboid-cuboid collision
 * detection. Its stochastic nature absorbs the approximation of
 * LSH-based NNS (paper §VI-B).
 */

#ifndef TARTAN_ROBOTICS_RRT_HH
#define TARTAN_ROBOTICS_RRT_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "robotics/collision.hh"
#include "robotics/nns.hh"
#include "sim/arena.hh"
#include "sim/rng.hh"

namespace tartan::robotics {

/** RRT configuration. */
struct RrtConfig {
    std::uint32_t dim = 5;          //!< degrees of freedom
    /**
     * Floats per node record (>= dim). Real RRT nodes cache forward
     * kinematics and collision metadata beside the configuration, so
     * the store is wide and index scans stride across it.
     */
    std::uint32_t strideFloats = 0;
    double stepSize = 0.05;         //!< extension step (unit cube space)
    double goalBias = 0.1;          //!< probability of sampling the goal
    double goalTolerance = 0.08;
    std::uint32_t maxIterations = 4000;
    std::uint32_t maxNodes = 4096;
    /**
     * Anytime mode: keep sampling for the full iteration budget after
     * the goal is first reached (the tree keeps improving and the
     * workload size becomes independent of when the goal was touched).
     */
    bool exploreFully = false;
};

/** Outcome of an RRT run. */
struct RrtResult {
    bool reachedGoal = false;
    std::uint32_t nodes = 0;
    std::uint64_t iterations = 0;
    std::uint64_t collisionChecks = 0;
    std::vector<std::uint32_t> path;  //!< node ids root..goal
    double pathLength = 0.0;
};

/**
 * The planner. Point storage is arena-backed so the NNS backend can
 * hold a stable base pointer.
 */
class RrtPlanner
{
  public:
    RrtPlanner(const RrtConfig &config, tartan::sim::Arena &arena);

    /** Base pointer of the configuration store (for NNS backends). */
    const float *store() const { return coords; }

    /**
     * Grow a tree from @p start towards @p goal.
     *
     * @param nns backend indexing this planner's store
     * @param is_blocked callable `bool(Mem&, const float*)` testing a
     *        configuration for collision (CCCD against the obstacle set)
     */
    template <typename BlockedFn>
    RrtResult
    plan(Mem &mem, NnsBackend &nns, const float *start, const float *goal,
         tartan::sim::Rng &rng, BlockedFn &&is_blocked)
    {
        RrtResult result;
        addNode(mem, nns, start, 0);
        result.nodes = 1;

        std::vector<float> sample(cfg.dim);
        for (std::uint64_t it = 0;
             it < cfg.maxIterations && nodeCount < cfg.maxNodes; ++it) {
            ++result.iterations;
            const bool to_goal = rng.uniform() < cfg.goalBias;
            for (std::uint32_t d = 0; d < cfg.dim; ++d)
                sample[d] = to_goal
                                ? goal[d]
                                : static_cast<float>(rng.uniform());
            mem.exec(2 * cfg.dim);

            const std::int32_t near = nns.nearest(mem, sample.data());
            if (near < 0)
                continue;

            // Extend one step from the nearest node towards the sample.
            const float *from = node(static_cast<std::uint32_t>(near));
            std::vector<float> fresh(cfg.dim);
            double norm = 0.0;
            for (std::uint32_t d = 0; d < cfg.dim; ++d) {
                const double diff = sample[d] - from[d];
                norm += diff * diff;
            }
            norm = std::sqrt(norm);
            mem.exec(3 * cfg.dim + 4);
            if (norm < 1e-9)
                continue;
            const double scale =
                std::min(1.0, cfg.stepSize / norm);
            for (std::uint32_t d = 0; d < cfg.dim; ++d)
                fresh[d] = static_cast<float>(
                    from[d] + (sample[d] - from[d]) * scale);

            ++result.collisionChecks;
            if (is_blocked(mem, fresh.data()))
                continue;

            const std::uint32_t id = addNode(
                mem, nns, fresh.data(), static_cast<std::uint32_t>(near));
            ++result.nodes;

            double to_goal_d = 0.0;
            for (std::uint32_t d = 0; d < cfg.dim; ++d) {
                const double diff = fresh[d] - goal[d];
                to_goal_d += diff * diff;
            }
            mem.exec(3 * cfg.dim);
            if (!result.reachedGoal &&
                std::sqrt(to_goal_d) <= cfg.goalTolerance) {
                result.reachedGoal = true;
                // Walk parents back to the root.
                std::uint32_t s = id;
                while (true) {
                    result.path.push_back(s);
                    if (parents[s] == s)
                        break;
                    s = parents[s];
                }
                std::reverse(result.path.begin(), result.path.end());
                for (std::size_t i = 1; i < result.path.size(); ++i)
                    result.pathLength += nodeDistance(result.path[i - 1],
                                                      result.path[i]);
                if (!cfg.exploreFully)
                    break;
            }
        }
        return result;
    }

    const float *
    node(std::uint32_t id) const
    {
        return coords + static_cast<std::size_t>(id) * stride();
    }
    std::uint32_t
    stride() const
    {
        return cfg.strideFloats ? cfg.strideFloats : cfg.dim;
    }
    std::uint32_t size() const { return nodeCount; }

  private:
    std::uint32_t addNode(Mem &mem, NnsBackend &nns, const float *q,
                          std::uint32_t parent);
    double nodeDistance(std::uint32_t a, std::uint32_t b) const;

    RrtConfig cfg;
    float *coords;
    std::vector<std::uint32_t> parents;
    std::uint32_t nodeCount = 0;
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_RRT_HH
