/**
 * @file
 * Nearest-neighbour-search backend interface and the brute-force
 * baseline (paper §VI).
 *
 * Backends index points held in an external contiguous store (owned by
 * the caller, e.g. the RRT tree or the point-cloud map). Brute force
 * scans the store; the k-d tree builds scattered nodes whose traversal
 * produces dependent misses; LSH copies coordinates into contiguous
 * per-bucket storage, enabling sequential access (and, in VLN,
 * aggressive vectorisation).
 */

#ifndef TARTAN_ROBOTICS_NNS_HH
#define TARTAN_ROBOTICS_NNS_HH

#include <cstdint>
#include <vector>

#include "robotics/trace.hh"

namespace tartan::robotics {

namespace nns_pc {
inline constexpr PcId brute = 120;
inline constexpr PcId kdNode = 121;
inline constexpr PcId kdPoint = 122;
inline constexpr PcId lshProject = 123;
inline constexpr PcId lshBucket = 124;
} // namespace nns_pc

/** Abstract NNS index over an external point store. */
class NnsBackend
{
  public:
    /**
     * @param store base of the row-major point array (stable pointer)
     * @param dim point dimensionality
     * @param stride floats between consecutive records (>= dim; real
     *        node records carry payload beyond the coordinates — FK
     *        caches, surfel attributes — so scans of the store stride
     *        over wide records while LSH's bucket copies stay dense)
     */
    NnsBackend(const float *store, std::uint32_t dim,
               std::uint32_t stride = 0)
        : pointStore(store), dimension(dim),
          recordStride(stride ? stride : dim)
    {
    }

    virtual ~NnsBackend() = default;

    /** Index point @p id (its coordinates live in the store). */
    virtual void insert(Mem &mem, std::uint32_t id) = 0;

    /** Id of the closest indexed point to @p query, or -1 if empty. */
    virtual std::int32_t nearest(Mem &mem, const float *query) = 0;

    /** All indexed points within @p eps of @p query. */
    virtual void radius(Mem &mem, const float *query, float eps,
                        std::vector<std::uint32_t> &out) = 0;

    virtual const char *name() const = 0;

    std::uint32_t dim() const { return dimension; }

  protected:
    const float *point(std::uint32_t id) const
    {
        return pointStore + static_cast<std::size_t>(id) * recordStride;
    }

    /** Instrumented squared distance between the query and point @p id. */
    float
    distSq(Mem &mem, const float *query, std::uint32_t id, PcId pc,
           MemDep dep = MemDep::Independent) const
    {
        const float *p = point(id);
        float acc = 0.0f;
        for (std::uint32_t d = 0; d < dimension; ++d) {
            const float v = mem.loadv(p + d, pc, dep);
            const float diff = v - query[d];
            acc += diff * diff;
        }
        mem.exec(3ull * dimension + 2);
        return acc;
    }

    const float *pointStore;
    std::uint32_t dimension;
    std::uint32_t recordStride;
};

/** Exhaustive scan over all indexed points (RoWild's baseline). */
class BruteForceNns : public NnsBackend
{
  public:
    using NnsBackend::NnsBackend;

    void
    insert(Mem &mem, std::uint32_t id) override
    {
        (void)mem;
        ids.push_back(id);
    }

    std::int32_t
    nearest(Mem &mem, const float *query) override
    {
        std::int32_t best = -1;
        float best_d = 0.0f;
        for (std::uint32_t id : ids) {
            const float d = distSq(mem, query, id, nns_pc::brute);
            mem.exec(1);  // comparison
            if (best < 0 || d < best_d) {
                best = static_cast<std::int32_t>(id);
                best_d = d;
            }
        }
        return best;
    }

    void
    radius(Mem &mem, const float *query, float eps,
           std::vector<std::uint32_t> &out) override
    {
        const float eps_sq = eps * eps;
        for (std::uint32_t id : ids) {
            const float d = distSq(mem, query, id, nns_pc::brute);
            mem.exec(1);
            if (d <= eps_sq)
                out.push_back(id);
        }
    }

    const char *name() const override { return "brute"; }

    std::size_t size() const { return ids.size(); }

  private:
    std::vector<std::uint32_t> ids;
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_NNS_HH
