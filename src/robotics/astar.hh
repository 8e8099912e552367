/**
 * @file
 * Weighted A* with re-expansions over flat state spaces (paper §V, §VII).
 *
 * The planner is generic over an expansion callable so the same engine
 * serves 2D pathfinding (DeliBot/CarriBot), 3D pathfinding (FlyBot) and
 * (x, y, theta) lattices. With an admissible heuristic and epsilon = 1
 * the returned path is optimal; with epsilon > 1 it is epsilon-optimal
 * (the Anytime A* guarantee AXAR leans on).
 *
 * Search metadata (g-values, parents, version stamps) lives in flat
 * arena arrays indexed by state id. Concurrently explored paths touch
 * spatially diverged slices of those arrays — the intra-application
 * cache contention FCP targets.
 */

#ifndef TARTAN_ROBOTICS_ASTAR_HH
#define TARTAN_ROBOTICS_ASTAR_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "robotics/trace.hh"
#include "sim/arena.hh"

namespace tartan::robotics {

namespace astar_pc {
inline constexpr PcId gValue = 130;
inline constexpr PcId parent = 131;
inline constexpr PcId stamp = 132;
} // namespace astar_pc

/** One successor produced by an expansion. */
struct Successor {
    std::uint32_t state;
    float cost;
};

/** Search outcome. */
struct SearchResult {
    bool found = false;
    double cost = 0.0;
    std::uint64_t expansions = 0;
    std::vector<std::uint32_t> path;  //!< start .. goal state ids
};

/** Arena-backed per-state search metadata, reusable across searches. */
class SearchArrays
{
  public:
    SearchArrays(std::uint32_t num_states, tartan::sim::Arena &arena)
        : count(num_states),
          g(arena.alloc<float>(num_states)),
          parent(arena.alloc<std::uint32_t>(num_states)),
          stamp(arena.alloc<std::uint32_t>(num_states))
    {
        for (std::uint32_t i = 0; i < num_states; ++i)
            stamp[i] = 0;
        generation = 0;
    }

    /** Begin a fresh search without clearing the arrays. */
    void nextSearch() { ++generation; }

    /** Instrumented g-value read; +inf when untouched this search. */
    float
    gValue(Mem &mem, std::uint32_t s) const
    {
        const std::uint32_t st =
            mem.loadv(stamp + s, astar_pc::stamp);
        if (st != generation)
            return std::numeric_limits<float>::infinity();
        return mem.loadv(g + s, astar_pc::gValue);
    }

    void
    setG(Mem &mem, std::uint32_t s, float value, std::uint32_t from)
    {
        mem.storev(stamp + s, generation, astar_pc::stamp);
        mem.storev(g + s, value, astar_pc::gValue);
        mem.storev(parent + s, from, astar_pc::parent);
    }

    std::uint32_t
    parentOf(std::uint32_t s) const
    {
        return parent[s];
    }

    std::uint32_t states() const { return count; }

  private:
    std::uint32_t count;
    float *g;
    std::uint32_t *parent;
    std::uint32_t *stamp;
    std::uint32_t generation;
};

/** Heuristic callable: estimated cost from a state to the goal. */
using HeuristicFn = std::function<double(Mem &, std::uint32_t)>;

/**
 * Weighted A* search.
 *
 * @param expand callable `void(Mem&, std::uint32_t s,
 *        std::vector<Successor>&)` appending successors of s
 * @param h heuristic (must be admissible for optimality at epsilon=1)
 * @param epsilon heuristic inflation (>= 1)
 */
template <typename ExpandFn>
SearchResult
weightedAStar(Mem &mem, SearchArrays &arrays, std::uint32_t start,
              std::uint32_t goal, ExpandFn &&expand, const HeuristicFn &h,
              double epsilon)
{
    struct OpenEntry {
        double f;
        float g;
        std::uint32_t state;
        bool operator>(const OpenEntry &o) const { return f > o.f; }
    };

    arrays.nextSearch();
    std::priority_queue<OpenEntry, std::vector<OpenEntry>,
                        std::greater<OpenEntry>>
        open;

    SearchResult result;
    arrays.setG(mem, start, 0.0f, start);
    open.push({epsilon * h(mem, start), 0.0f, start});

    std::vector<Successor> succs;
    while (!open.empty()) {
        const OpenEntry top = open.top();
        open.pop();
        mem.exec(8);  // heap pop bookkeeping

        // Stale entry (a better g was found after this push).
        if (top.g > arrays.gValue(mem, top.state))
            continue;

        if (top.state == goal) {
            result.found = true;
            result.cost = top.g;
            // Reconstruct the path.
            std::uint32_t s = goal;
            while (true) {
                result.path.push_back(s);
                const std::uint32_t p = arrays.parentOf(s);
                mem.exec(2);
                if (p == s)
                    break;
                s = p;
            }
            std::reverse(result.path.begin(), result.path.end());
            return result;
        }

        ++result.expansions;
        succs.clear();
        expand(mem, top.state, succs);
        for (const Successor &sc : succs) {
            const float cand = top.g + sc.cost;
            mem.exec(2);
            if (cand < arrays.gValue(mem, sc.state)) {
                arrays.setG(mem, sc.state, cand, top.state);
                const double f = cand + epsilon * h(mem, sc.state);
                open.push({f, cand, sc.state});
                mem.exec(8);  // heap push bookkeeping
            }
        }
    }
    return result;
}

/** Per-iteration report of an Anytime A* run. */
struct AnytimeIteration {
    double epsilon;
    double cost;
    std::uint64_t expansions;
    bool rerunOnCpu = false;  //!< AXAR supervisor rolled this back
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_ASTAR_HH
