/**
 * @file
 * Golden-model check: the set-associative cache is driven with long
 * randomized traces and compared, operation by operation, against an
 * obviously-correct reference implementation. The reference models the
 * whole Cache contract — LRU replacement, dirty evictions, prefetch
 * fills with their ready cycle (timely and late hits, prefetched lines
 * evicted unused), UDM byte accounting, and FCP indexing plus the m(x)
 * replacement manipulation — with one plain pass per protocol step.
 * The reference derives every set index itself, FCP permutation
 * included, and never calls Cache code to do it, so an indexing bug in
 * the cache shows up as a divergence.
 * Run for several geometries (associativity x line size) as a property
 * sweep, and for each FCP manipulation function.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cache.hh"
#include "sim/rng.hh"

namespace {

using namespace tartan::sim;

/**
 * An obviously-correct cache: a map of sets, each a vector of ways
 * carrying an explicit LRU recency (0 = MRU). No memo, no fused passes,
 * no flat arrays: every protocol step is its own loop, written straight
 * from the specification.
 */
class ReferenceLru
{
  public:
    /** Outcome of a lookup (mirrors Cache::LookupResult). */
    struct Result {
        bool hit = false;
        bool prefetched = false;
        Cycles latePenalty = 0;
    };

    /** The displaced line of a fill (mirrors Cache::Eviction). */
    struct Victim {
        bool valid = false;
        Addr lineAddr = 0;
        bool dirty = false;
    };

    explicit ReferenceLru(const CacheParams &params)
        : config(params),
          numSets(params.sizeBytes / (params.assoc * params.lineBytes))
    {
    }

    /** Demand or write-back lookup (count_miss=false for the latter). */
    Result
    access(Addr addr, bool store = false, std::uint32_t size = 4,
           Cycles now = 0, bool count_miss = true)
    {
        const std::uint64_t line = addr / config.lineBytes;
        auto &set = setOf(line);
        for (Way &w : set) {
            if (!w.valid || w.line != line)
                continue;
            ++stats.hits;
            Result res;
            res.hit = true;
            if (w.prefetched) {
                res.prefetched = true;
                ++stats.prefetchHits;
                res.latePenalty = w.readyAt > now ? w.readyAt - now : 0;
                w.prefetched = false;
            }
            if (store)
                w.dirty = true;
            touch(w, addr, size);
            // Promote: every valid line younger than the hit line ages.
            for (Way &o : set)
                if (o.valid && o.recency < w.recency)
                    ++o.recency;
            w.recency = 0;
            return res;
        }
        if (count_miss)
            ++stats.misses;
        return Result{};
    }

    /** Install a line; a resident line is only promoted (and dirtied). */
    Victim
    fill(Addr addr, bool prefetch = false, bool dirty = false,
         Cycles ready_at = 0)
    {
        const std::uint64_t line = addr / config.lineBytes;
        auto &set = setOf(line);
        for (Way &w : set) {
            if (!w.valid || w.line != line)
                continue;
            w.dirty = w.dirty || dirty;
            for (Way &o : set)
                if (o.valid && o.recency < w.recency)
                    ++o.recency;
            w.recency = 0;
            return Victim{};
        }

        // Victim: the first invalid way, else the earliest way of
        // maximal recency.
        std::size_t victim = set.size();
        for (std::size_t i = 0; i < set.size() && victim == set.size(); ++i)
            if (!set[i].valid)
                victim = i;
        if (victim == set.size()) {
            victim = 0;
            for (std::size_t i = 1; i < set.size(); ++i)
                if (set[i].recency > set[victim].recency)
                    victim = i;
            for (std::size_t i = victim + 1; i < set.size(); ++i)
                if (set[i].recency == set[victim].recency) {
                    ++victimTies;
                    break;
                }
        }

        Victim out;
        Way &v = set[victim];
        if (v.valid) {
            out = Victim{true, v.line * config.lineBytes, v.dirty};
            ++stats.evictions;
            stats.dirtyEvictions += v.dirty;
            stats.prefetchUnused += v.prefetched;
            if (config.trackUdm) {
                stats.udmFetchedBytes += config.lineBytes;
                stats.udmUsedBytes += 4 * v.granules.size();
            }
            v = Way{};
        }

        // Age every resident line, saturating at the natural maximum.
        for (Way &o : set)
            if (o.valid && o.recency < config.assoc - 1)
                ++o.recency;
        // FCP: pass every same-region line through m(x), clamped.
        if (config.fcp) {
            const std::uint32_t ceiling = 4 * (config.assoc - 1) + 1;
            for (Way &o : set) {
                if (!o.valid || regionOf(o.line) != regionOf(line))
                    continue;
                o.recency = std::min(config.fcp->apply(o.recency), ceiling);
            }
        }

        v.valid = true;
        v.line = line;
        v.recency = 0;
        v.dirty = dirty;
        v.prefetched = prefetch;
        v.readyAt = ready_at;
        if (prefetch)
            ++stats.prefetchFills;
        return out;
    }

    /** Residency check. */
    bool
    probe(Addr addr)
    {
        const std::uint64_t line = addr / config.lineBytes;
        for (const Way &w : setOf(line))
            if (w.valid && w.line == line)
                return true;
        return false;
    }

    /** Resident lines matching @p pred. */
    template <typename Pred>
    std::uint64_t
    countLines(Pred pred) const
    {
        std::uint64_t n = 0;
        for (const auto &[index, set] : sets)
            for (const Way &w : set)
                n += w.valid && pred(w);
        return n;
    }

    std::uint64_t
    dirtyLines() const
    {
        return countLines([](const Way &w) { return w.dirty; });
    }

    std::uint64_t
    prefetchedLines() const
    {
        return countLines([](const Way &w) { return w.prefetched; });
    }

    CacheStats stats;
    /** Victim choices among several ways of equal maximal recency. */
    std::uint64_t victimTies = 0;

  private:
    struct Way {
        bool valid = false;
        std::uint64_t line = 0;
        std::uint32_t recency = 0;
        bool dirty = false;
        bool prefetched = false;
        Cycles readyAt = 0;
        std::set<std::uint32_t> granules;  //!< touched 4-byte granules
    };

    std::vector<Way> &
    setOf(std::uint64_t line)
    {
        auto &set = sets[setNumber(line)];
        if (set.empty())
            set.resize(config.assoc);
        return set;
    }

    /**
     * Set of @p line, from the FCP definition rather than Cache code.
     * In a region of R lines, offsets that differ only in their top
     * foldBits bits share a set, leaving K = R / 2^foldBits distinct
     * offsets; region r owns the K set slots from r * K on, taken
     * modulo the set count.
     */
    std::uint64_t
    setNumber(std::uint64_t line) const
    {
        if (!config.fcp)
            return line % numSets;
        const std::uint64_t region_lines =
            config.fcp->regionBytes / config.lineBytes;
        const std::uint64_t kept = region_lines >> config.fcp->foldBits;
        const std::uint64_t offset = line % region_lines;
        return (offset % kept + regionOf(line) * kept) % numSets;
    }

    std::uint64_t
    regionOf(std::uint64_t line) const
    {
        return line / (config.fcp->regionBytes / config.lineBytes);
    }

    void
    touch(Way &w, Addr addr, std::uint32_t size)
    {
        if (!config.trackUdm)
            return;
        const std::uint32_t off = addr % config.lineBytes;
        const std::uint32_t last =
            std::min(off + (size ? size - 1 : 0), config.lineBytes - 1);
        for (std::uint32_t b = off; b <= last; ++b)
            w.granules.insert(b / 4);
    }

    CacheParams config;
    std::uint64_t numSets;
    std::map<std::uint64_t, std::vector<Way>> sets;
};

class GoldenCacheSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GoldenCacheSweep, MatchesReferenceOnRandomTrace)
{
    const std::uint32_t assoc = std::get<0>(GetParam());
    const std::uint32_t line = std::get<1>(GetParam());

    CacheParams params;
    params.sizeBytes = 16 * 1024;
    params.assoc = assoc;
    params.lineBytes = line;
    Cache cache(params);
    ReferenceLru ref(params);

    Rng rng(assoc * 1000 + line);
    // A footprint a few times the cache size, with hot/cold skew.
    const Addr hot_span = 8 * 1024;
    const Addr cold_span = 128 * 1024;
    std::uint64_t hits = 0, accesses = 0;
    for (int step = 0; step < 50000; ++step) {
        const bool hot = rng.uniform() < 0.7;
        const Addr addr =
            hot ? rng.uniformInt(hot_span)
                : hot_span + rng.uniformInt(cold_span);
        const bool got = cache.access(addr, AccessType::Load, 4).hit;
        const bool want = ref.access(addr).hit;
        ASSERT_EQ(got, want) << "step " << step << " addr " << addr;
        if (!got) {
            cache.fill(addr);
            ref.fill(addr);
        }
        hits += got;
        ++accesses;
    }
    // Sanity: the skewed trace must produce a non-trivial hit rate.
    EXPECT_GT(hits, accesses / 4);
    EXPECT_LT(hits, accesses);
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().misses, accesses - hits);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GoldenCacheSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(32, 64)));

TEST(GoldenCache, FillEvictionsMatchReferenceOccupancy)
{
    // Every fill beyond capacity must evict exactly one line, and the
    // evicted line must be the least recently used of its set.
    CacheParams params;
    params.sizeBytes = 2048;
    params.assoc = 4;
    params.lineBytes = 64;
    Cache cache(params);

    Rng rng(99);
    std::uint64_t fills = 0, evictions = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr addr = rng.uniformInt(64 * 1024);
        if (!cache.access(addr, AccessType::Load, 4).hit) {
            auto ev = cache.fill(addr);
            ++fills;
            if (ev.valid) {
                ++evictions;
                // The victim must no longer be resident...
                EXPECT_FALSE(cache.probe(ev.lineAddr));
                // ...and the new line must be.
                EXPECT_TRUE(cache.probe(addr));
            }
        }
    }
    EXPECT_EQ(cache.stats().evictions, evictions);
    // After warm-up nearly every fill evicts (footprint >> capacity).
    EXPECT_GT(evictions, fills - 64);
}

/**
 * Fixture driving one Cache and one ReferenceLru with the same
 * randomized mix of the operations the memory path issues: demand
 * loads and stores of varying size, write-back lookups (no miss
 * counted) with dirty fills, and prefetch fills whose ready cycle lies
 * in the future, so later demand hits land both timely and late.
 */
class CacheReference : public ::testing::Test
{
  protected:
    /** Build both models for @p params (UDM tracking always on). */
    void
    build(CacheParams params, std::uint32_t assoc = 8)
    {
        params.sizeBytes = 8 * 1024;
        params.assoc = assoc;
        params.lineBytes = 64;
        params.trackUdm = true;
        cache = std::make_unique<Cache>(params);
        ref = std::make_unique<ReferenceLru>(params);
    }

    /** Run @p steps random operations; every outcome must agree. */
    void
    drive(std::uint64_t seed, int steps)
    {
        Rng rng(seed);
        Cycles now = 0;
        for (int step = 0; step < steps; ++step) {
            now += 4;
            const Addr addr = rng.uniformInt(kSpan);
            const double op = rng.uniform();
            if (op < 0.1) {
                // Prefetch fill, ready a little later.
                if (cache->probe(addr) != ref->probe(addr))
                    FAIL() << "probe diverged at step " << step;
                if (!cache->probe(addr)) {
                    const Cycles ready = now + rng.uniformInt(40);
                    expectSame(cache->fill(addr, true, false, ready),
                               ref->fill(addr, true, false, ready), step);
                }
                continue;
            }
            const bool writeback = op < 0.2;
            const bool store = writeback || rng.uniform() < 0.3;
            const AccessType type =
                store ? AccessType::Store : AccessType::Load;
            const std::uint32_t size =
                writeback ? 0 : 4u << rng.uniformInt(5);
            const auto got =
                cache->lookup(addr, type, size, now, !writeback);
            const auto want = ref->access(addr, store, size, now,
                                          !writeback);
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.prefetched, want.prefetched) << "step " << step;
            ASSERT_EQ(got.latePenalty, want.latePenalty)
                << "step " << step;
            if (!got.hit)
                expectSame(cache->fill(addr, false, store),
                           ref->fill(addr, false, store), step);
        }
    }

    /** Final state: every counter and the resident set agree. */
    void
    expectSameState()
    {
        const CacheStats &a = cache->stats();
        const CacheStats &b = ref->stats;
        EXPECT_EQ(a.hits, b.hits);
        EXPECT_EQ(a.misses, b.misses);
        EXPECT_EQ(a.evictions, b.evictions);
        EXPECT_EQ(a.dirtyEvictions, b.dirtyEvictions);
        EXPECT_EQ(a.prefetchFills, b.prefetchFills);
        EXPECT_EQ(a.prefetchHits, b.prefetchHits);
        EXPECT_EQ(a.prefetchUnused, b.prefetchUnused);
        EXPECT_EQ(a.udmFetchedBytes, b.udmFetchedBytes);
        EXPECT_EQ(a.udmUsedBytes, b.udmUsedBytes);
        EXPECT_EQ(cache->dirtyLines(), ref->dirtyLines());
        EXPECT_EQ(cache->prefetchedLines(), ref->prefetchedLines());
        for (Addr a_line = 0; a_line < kSpan; a_line += 64)
            ASSERT_EQ(cache->probe(a_line), ref->probe(a_line))
                << "addr " << a_line;
        // The trace must have exercised every modelled behaviour.
        EXPECT_GT(a.dirtyEvictions, 0u);
        EXPECT_GT(a.prefetchHits, 0u);
        EXPECT_GT(a.prefetchUnused, 0u);
        EXPECT_GT(a.udmUsedBytes, 0u);
    }

    static constexpr Addr kSpan = 64 * 1024;
    std::unique_ptr<Cache> cache;
    std::unique_ptr<ReferenceLru> ref;

  private:
    static void
    expectSame(const Cache::Eviction &got, const ReferenceLru::Victim &want,
               int step)
    {
        ASSERT_EQ(got.valid, want.valid) << "step " << step;
        if (!got.valid)
            return;
        ASSERT_EQ(got.lineAddr, want.lineAddr) << "step " << step;
        ASSERT_EQ(got.dirty, want.dirty) << "step " << step;
    }
};

TEST_F(CacheReference, StandardIndexingMatchesOnRandomTrace)
{
    build(CacheParams{});
    drive(7, 30000);
    expectSameState();
}

TEST_F(CacheReference, FcpIndexingAndReplacementMatchOnRandomTrace)
{
    // FCP indexing folds l region-offset bits, so 2^l lines of a
    // region share each set, and m(x) pushes same-region lines towards
    // eviction on every fill. Each manipulation function must agree
    // with the reference's plain age-then-manipulate pass, ties and
    // clamping at the ceiling included (l = 3 drives recencies into
    // the clamp).
    for (const std::uint32_t fold : {1u, 3u}) {
        for (const auto func :
             {FcpParams::Func::XPlus1, FcpParams::Func::TwoX,
              FcpParams::Func::XSquared}) {
            CacheParams params;
            params.fcp = FcpParams{1024, fold, func};
            SCOPED_TRACE("l=" + std::to_string(fold) +
                         " m=" + std::to_string(int(func)));
            build(params);
            drive(8 + fold + int(func), 30000);
            expectSameState();
        }
    }
}

TEST_F(CacheReference, FcpTiesAtLowAssociativityPickTheEarliestWay)
{
    // x+1 grows same-region recencies slowly, so several lines of one
    // region sit at equal (often clamped) recency together, and four
    // ways leave the victim scan few candidates: the earliest way of
    // equal maximal recency must be the one evicted, as in the
    // reference. (Two ways never tie: after any fill or hit one way is
    // at 0 and the other above it.)
    CacheParams params;
    params.fcp = FcpParams{1024, 3, FcpParams::Func::XPlus1};
    build(params, 4);
    drive(24, 30000);
    expectSameState();
    EXPECT_GT(ref->victimTies, 1000u)
        << "the trace never exercised the victim tie-break";
}

TEST(GoldenCache, WritebackLookupDoesNotCountMisses)
{
    // A write-back is not a demand access: its lookup counts a hit on a
    // resident copy but never a miss.
    CacheParams params;
    Cache cache(params);
    EXPECT_FALSE(cache.lookup(0x1000, AccessType::Store, 0, 0, false).hit);
    EXPECT_EQ(cache.stats().misses, 0u);
    cache.fill(0x1000, false, true);
    EXPECT_TRUE(cache.lookup(0x1000, AccessType::Store, 0, 0, false).hit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 0u);
    // A demand lookup counts the miss exactly once.
    EXPECT_FALSE(cache.access(0x2000, AccessType::Load, 4).hit);
    EXPECT_EQ(cache.stats().misses, 1u);
}

} // namespace
