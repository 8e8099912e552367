/**
 * @file
 * LSH / VLN implementation.
 */

#include "robotics/lsh.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tartan::robotics {

LshNns::LshNns(const float *store, std::uint32_t dim,
               const LshConfig &config, bool vectorized,
               std::uint32_t stride, tartan::sim::Arena *arena)
    : NnsBackend(store, dim, stride), cfg(config), vectorMode(vectorized),
      arenaPtr(arena)
{
    tartan::sim::Rng rng(cfg.seed);
    const std::size_t total =
        static_cast<std::size_t>(cfg.tables) * cfg.hashesPerTable;
    projections.bind(arena);
    offsets.bind(arena);
    projections.reserve(total * dim);
    offsets.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        for (std::uint32_t d = 0; d < dim; ++d)
            projections.push_back(static_cast<float>(rng.gaussian()));
        offsets.push_back(static_cast<float>(
            rng.uniform(0.0, cfg.bucketWidth)));
    }
    tableData.resize(cfg.tables);
}

float
LshNns::hostDistSq(const float *a, const float *b) const
{
    float acc = 0.0f;
    for (std::uint32_t d = 0; d < dimension; ++d) {
        const float diff = a[d] - b[d];
        acc += diff * diff;
    }
    return acc;
}

void
LshNns::chargeScan(Mem &mem, const float *base, std::size_t floats,
                   PcId pc) const
{
    if (!mem.attached() || floats == 0)
        return;
    if (!vectorMode) {
        // FLANN-style scalar loop: load, subtract, square, accumulate,
        // plus the per-iteration conditional branch.
        for (std::size_t i = 0; i < floats; ++i)
            mem.loadv(base + i, pc);
        mem.execFp(3 * floats);
        mem.exec(floats);
        return;
    }
    // VLN: packed 16-lane vector loads over the contiguous bucket plus
    // two vector ops (subtract+FMA) per packet and amortised mask math.
    const std::uint32_t lanes = 16;
    std::size_t i = 0;
    while (i < floats) {
        const std::uint32_t n =
            static_cast<std::uint32_t>(std::min<std::size_t>(lanes,
                                                             floats - i));
        mem.core()->vecLoadContiguous(
            reinterpret_cast<tartan::sim::Addr>(base + i),
            n * sizeof(float), pc);
        mem.core()->vecOp(2);
        i += n;
    }
    mem.exec(2);  // mask reduction
}

void
LshNns::hashPoint(Mem &mem, const float *p, std::uint32_t table,
                  std::int64_t *h) const
{
    for (std::uint32_t j = 0; j < cfg.hashesPerTable; ++j) {
        const std::size_t idx =
            static_cast<std::size_t>(table) * cfg.hashesPerTable + j;
        const float *r = projections.data() + idx * dimension;
        float acc = offsets[idx];
        for (std::uint32_t d = 0; d < dimension; ++d)
            acc += r[d] * p[d];
        h[j] = static_cast<std::int64_t>(
            std::floor(acc / cfg.bucketWidth));
        // Projection cost: a dot product over the projection vector.
        chargeScan(mem, r, dimension, nns_pc::lshProject);
        mem.execFp(4);
    }
}

std::uint64_t
LshNns::combine(const std::int64_t *h, std::uint32_t k)
{
    std::uint64_t key = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t j = 0; j < k; ++j) {
        key ^= static_cast<std::uint64_t>(h[j]) + 0x9e3779b97f4a7c15ull +
               (key << 6) + (key >> 2);
    }
    return key;
}

void
LshNns::insert(Mem &mem, std::uint32_t id)
{
    const float *p = point(id);
    std::int64_t h[16];
    TARTAN_ASSERT(cfg.hashesPerTable <= 16, "too many hashes per table");
    for (std::uint32_t t = 0; t < cfg.tables; ++t) {
        hashPoint(mem, p, t, h);
        Bucket &bucket = tableData[t][combine(h, cfg.hashesPerTable)];
        bucket.coords.bind(arenaPtr);
        bucket.ids.bind(arenaPtr);
        for (std::uint32_t d = 0; d < dimension; ++d) {
            bucket.coords.push_back(p[d]);
            if (mem.attached())
                mem.storev(&bucket.coords.back(), bucket.coords.back(),
                           nns_pc::lshBucket);
        }
        bucket.ids.push_back(id);
    }
    indexed.push_back(id);
}

void
LshNns::scanBucket(Mem &mem, const Bucket &bucket, const float *query,
                   std::int32_t &best, float &best_d)
{
    const std::size_t count = bucket.ids.size();
    chargeScan(mem, bucket.coords.data(), count * dimension,
               nns_pc::lshBucket);
    for (std::size_t c = 0; c < count; ++c) {
        const float d =
            hostDistSq(query, bucket.coords.data() + c * dimension);
        if (best < 0 || d < best_d) {
            best = static_cast<std::int32_t>(bucket.ids[c]);
            best_d = d;
        }
    }
}

void
LshNns::scanBucketRadius(Mem &mem, const Bucket &bucket,
                         const float *query, float eps_sq,
                         std::vector<std::uint32_t> &out)
{
    const std::size_t count = bucket.ids.size();
    chargeScan(mem, bucket.coords.data(), count * dimension,
               nns_pc::lshBucket);
    for (std::size_t c = 0; c < count; ++c) {
        const float d =
            hostDistSq(query, bucket.coords.data() + c * dimension);
        if (d <= eps_sq)
            out.push_back(bucket.ids[c]);
    }
}

std::int32_t
LshNns::nearest(Mem &mem, const float *query)
{
    std::int32_t best = -1;
    float best_d = 0.0f;
    std::int64_t h[16];
    for (std::uint32_t t = 0; t < cfg.tables; ++t) {
        hashPoint(mem, query, t, h);
        const std::int64_t h0 = h[0];
        const int probes = cfg.probeNeighbors ? 3 : 1;
        for (int p = 0; p < probes; ++p) {
            h[0] = h0 + (p == 1 ? 1 : (p == 2 ? -1 : 0));
            auto it = tableData[t].find(combine(h, cfg.hashesPerTable));
            mem.exec(6);  // hash combine + table lookup
            if (it != tableData[t].end())
                scanBucket(mem, it->second, query, best, best_d);
        }
    }
    if (best < 0 && !indexed.empty()) {
        // All probes empty: exhaustive fallback keeps the index
        // functionally total.
        for (std::uint32_t id : indexed) {
            chargeScan(mem, point(id), dimension, nns_pc::lshBucket);
            const float d = hostDistSq(query, point(id));
            if (best < 0 || d < best_d) {
                best = static_cast<std::int32_t>(id);
                best_d = d;
            }
        }
    }
    return best;
}

void
LshNns::radius(Mem &mem, const float *query, float eps,
               std::vector<std::uint32_t> &out)
{
    const float eps_sq = eps * eps;
    std::vector<std::uint32_t> merged;
    std::int64_t h[16];
    for (std::uint32_t t = 0; t < cfg.tables; ++t) {
        hashPoint(mem, query, t, h);
        const std::int64_t h0 = h[0];
        const int probes = cfg.probeNeighbors ? 3 : 1;
        for (int p = 0; p < probes; ++p) {
            h[0] = h0 + (p == 1 ? 1 : (p == 2 ? -1 : 0));
            auto it = tableData[t].find(combine(h, cfg.hashesPerTable));
            mem.exec(6);
            if (it != tableData[t].end())
                scanBucketRadius(mem, it->second, query, eps_sq, merged);
        }
    }
    // Deduplicate across tables.
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    out.insert(out.end(), merged.begin(), merged.end());
}

std::vector<std::size_t>
LshNns::bucketSizes() const
{
    std::vector<std::size_t> sizes;
    for (const Table &t : tableData)
        for (const auto &kv : t)
            sizes.push_back(kv.second.ids.size());
    return sizes;
}

} // namespace tartan::robotics
