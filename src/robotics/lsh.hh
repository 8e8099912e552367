/**
 * @file
 * Locality-sensitive-hashing NNS (paper §VI-A/B/C).
 *
 * Random-projection LSH: h(x) = floor((x . r + b) / w) with r drawn
 * from N(0, 1). Points hashing to the same bucket key are stored
 * *contiguously* per bucket, turning candidate examination into
 * sequential scans — the property both the ANL prefetcher and the
 * vectorised VLN implementation exploit.
 *
 * Two instrumentation modes share one functional implementation:
 *  - scalar (FLANN-like): per-element loads and FP ops, with the
 *    per-iteration conditional that defeats compiler vectorisation;
 *  - vectorised (VLN): projections and bucket scans charged as packed
 *    vector loads and vector ALU ops.
 */

#ifndef TARTAN_ROBOTICS_LSH_HH
#define TARTAN_ROBOTICS_LSH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "robotics/nns.hh"
#include "sim/arena.hh"
#include "sim/rng.hh"

namespace tartan::robotics {

/** LSH index parameters. */
struct LshConfig {
    std::uint32_t tables = 4;          //!< independent hash tables (L)
    std::uint32_t hashesPerTable = 2;  //!< concatenated projections (k)
    float bucketWidth = 1.0f;          //!< w, controls bucket size
    std::uint64_t seed = 1234;
    bool probeNeighbors = true;        //!< multi-probe adjacent buckets
};

/** LSH-based NNS backend; vectorised=true yields VLN's timing. */
class LshNns : public NnsBackend
{
  public:
    /**
     * @param arena optional backing store for the instrumented arrays
     *        (projection vectors, bucket copies). Bind one when the
     *        run must be address-deterministic: bucket growth then
     *        bump-allocates instead of reallocating through the host
     *        heap.
     */
    LshNns(const float *store, std::uint32_t dim,
           const LshConfig &config, bool vectorized,
           std::uint32_t stride = 0,
           tartan::sim::Arena *arena = nullptr);

    void insert(Mem &mem, std::uint32_t id) override;
    std::int32_t nearest(Mem &mem, const float *query) override;
    void radius(Mem &mem, const float *query, float eps,
                std::vector<std::uint32_t> &out) override;
    const char *name() const override
    {
        return vectorMode ? "vln" : "flann-lsh";
    }

    std::size_t size() const { return indexed.size(); }

    /** Bucket occupancy histogram (for density-heterogeneity studies). */
    std::vector<std::size_t> bucketSizes() const;

  private:
    struct Bucket {
        //!< contiguous candidate data
        tartan::sim::ArenaVec<float> coords;
        tartan::sim::ArenaVec<std::uint32_t> ids;
    };

    using Table = std::unordered_map<std::uint64_t, Bucket>;

    /** Per-table integer hash values for a point. */
    void hashPoint(Mem &mem, const float *p, std::uint32_t table,
                   std::int64_t *h) const;
    static std::uint64_t combine(const std::int64_t *h, std::uint32_t k);
    /** Scan one bucket, updating the best candidate. */
    void scanBucket(Mem &mem, const Bucket &bucket, const float *query,
                    std::int32_t &best, float &best_d);
    void scanBucketRadius(Mem &mem, const Bucket &bucket,
                          const float *query, float eps_sq,
                          std::vector<std::uint32_t> &out);
    /** Charge the examination of `floats` contiguous values. */
    void chargeScan(Mem &mem, const float *base, std::size_t floats,
                    PcId pc) const;
    float hostDistSq(const float *a, const float *b) const;

    LshConfig cfg;
    bool vectorMode;
    tartan::sim::Arena *arenaPtr;
    /** projections[t*k + j] is a dim-vector; offsets[t*k + j] is b. */
    tartan::sim::ArenaVec<float> projections;
    tartan::sim::ArenaVec<float> offsets;
    std::vector<Table> tableData;
    std::vector<std::uint32_t> indexed;
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_LSH_HH
