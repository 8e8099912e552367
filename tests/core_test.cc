/**
 * @file
 * Tests for Tartan's architectural components: OVEC and its comparison
 * engines, the ANL prefetcher, the NPU model, and the area model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/anl.hh"
#include "core/area.hh"
#include "core/npu.hh"
#include "core/ovec.hh"
#include "robotics/geometry.hh"
#include "robotics/grid.hh"
#include "robotics/raycast.hh"
#include "sim/arena.hh"
#include "sim/system.hh"

namespace {

using namespace tartan;
using namespace tartan::core;
using robotics::Mem;
using sim::Addr;
using sim::Arena;
using sim::Rng;
using sim::SysConfig;
using sim::System;

// ---------------------------------------------------------------- OVEC

struct EngineFixture : ::testing::Test {
    EngineFixture() : arena(4 << 20), grid(128, 128, arena)
    {
        Rng rng(3);
        grid.scatterObstacles(rng, 0.05, 5);
    }

    Arena arena;
    robotics::OccupancyGrid2D grid;
};

TEST_F(EngineFixture, AllEnginesReturnIdenticalValues)
{
    robotics::ScalarOrientedEngine scalar;
    OvecEngine ovec;
    GatherEngine gather;
    RacodEngine racod;
    Mem mem;  // untraced: value semantics only

    for (double stride : {1.0, -1.0, 127.3, -128.7, 64.5, 3.25}) {
        float want[16], got[16];
        scalar.load(mem, grid.data(), grid.cells(), 5000.7, stride, 16,
                    want, 1);
        for (robotics::OrientedEngine *e :
             {static_cast<robotics::OrientedEngine *>(&ovec),
              static_cast<robotics::OrientedEngine *>(&gather),
              static_cast<robotics::OrientedEngine *>(&racod)}) {
            e->load(mem, grid.data(), grid.cells(), 5000.7, stride, 16,
                    got, 1);
            for (int i = 0; i < 16; ++i)
                EXPECT_EQ(got[i], want[i])
                    << e->name() << " stride " << stride << " lane "
                    << i;
        }
    }
}

TEST_F(EngineFixture, RaycastResultIndependentOfEngine)
{
    robotics::ScalarOrientedEngine scalar;
    OvecEngine ovec;
    GatherEngine gather;
    RacodEngine racod;
    Mem mem;
    robotics::RayConfig cfg;
    cfg.maxRange = 100;
    for (int a = 0; a < 12; ++a) {
        const double theta = a * 2.0 * robotics::kPi / 12.0;
        const double want = castRay(mem, grid, 40.2, 60.9, theta, cfg,
                                    scalar);
        EXPECT_NEAR(castRay(mem, grid, 40.2, 60.9, theta, cfg, ovec),
                    want, 1e-9);
        EXPECT_NEAR(castRay(mem, grid, 40.2, 60.9, theta, cfg, gather),
                    want, 1e-9);
        EXPECT_NEAR(castRay(mem, grid, 40.2, 60.9, theta, cfg, racod),
                    want, 1e-9);
    }
}

TEST_F(EngineFixture, InstructionCountOrdering)
{
    // Paper §VIII-A: OVEC cuts dynamic instructions; Gather's index
    // computation pushes them above the OVEC count (near baseline);
    // RACOD exchanges only final outcomes.
    SysConfig cfg;
    auto instr = [&](robotics::OrientedEngine &engine) {
        System sys(cfg);
        Mem mem(&sys.core());
        robotics::RayConfig rc;
        rc.maxRange = 100;
        for (int a = 0; a < 8; ++a)
            castRay(mem, grid, 40.2, 60.9,
                    a * 2.0 * robotics::kPi / 8.0, rc, engine);
        return sys.core().instructions();
    };
    robotics::ScalarOrientedEngine scalar;
    OvecEngine ovec;
    GatherEngine gather;
    RacodEngine racod;
    const auto scalar_i = instr(scalar);
    const auto ovec_i = instr(ovec);
    const auto gather_i = instr(gather);
    const auto racod_i = instr(racod);
    EXPECT_LT(ovec_i, scalar_i / 2);
    EXPECT_GT(gather_i, ovec_i * 2);
    EXPECT_LT(racod_i, ovec_i);
}

TEST_F(EngineFixture, OvecFasterThanScalarOnLongRays)
{
    // An open corridor: rays run their full length, the regime OVEC's
    // batching targets (short aborted rays favour the scalar walk).
    Arena big(4 << 20);
    robotics::OccupancyGrid2D open_grid(256, 256, big);
    SysConfig cfg;
    auto cycles = [&](robotics::OrientedEngine &engine) {
        System sys(cfg);
        Mem mem(&sys.core());
        robotics::RayConfig rc;
        rc.maxRange = 200;
        for (int y = 16; y < 240; y += 16)
            castRay(mem, open_grid, 8.0, double(y), 0.0, rc, engine);
        return sys.core().cycles();
    };
    robotics::ScalarOrientedEngine scalar;
    OvecEngine ovec;
    RacodEngine racod;
    const auto scalar_c = cycles(scalar);
    const auto ovec_c = cycles(ovec);
    const auto racod_c = cycles(racod);
    EXPECT_LT(ovec_c, scalar_c);
    EXPECT_LT(racod_c, ovec_c);  // the ASIC remains fastest
}

TEST(Ovec, AddressGenerationMatchesFlattening)
{
    // generateOrientedCells must floor the fractional flattened index
    // exactly like the paper's example (4.6, 8.5) -> env[82].
    std::vector<float> env(256);
    const float *cells[4];
    generateOrientedCells(env.data(), env.size(), 82.1, 16.0, 4, cells);
    EXPECT_EQ(cells[0] - env.data(), 82);
    EXPECT_EQ(cells[1] - env.data(), 98);
    EXPECT_EQ(cells[2] - env.data(), 114);
    EXPECT_EQ(cells[3] - env.data(), 130);
}

TEST(Ovec, ClampsOutOfBoundsLanes)
{
    std::vector<float> env(64);
    const float *cells[4];
    generateOrientedCells(env.data(), env.size(), 60.0, 3.0, 4, cells);
    EXPECT_EQ(cells[3] - env.data(), 63);  // clamped to the last cell
    generateOrientedCells(env.data(), env.size(), 2.0, -3.0, 4, cells);
    EXPECT_EQ(cells[3] - env.data(), 0);   // clamped to the first cell
}

// ----------------------------------------------------------------- ANL

TEST(Anl, Storage120BytesPerCore)
{
    AnlPrefetcher anl(AnlConfig{});
    EXPECT_EQ(anl.storageBits(), 16u * (12 + 38 + 10));
    EXPECT_EQ(anl.storageBits() / 8, 120u);
}

TEST(Anl, LearnsDegreeAcrossResidencies)
{
    AnlConfig cfg;
    cfg.lineBytes = 64;
    AnlPrefetcher anl(cfg);
    std::vector<Addr> out;
    const Addr region = 0x10000;  // 1 KB aligned

    // First residency: touch 6 lines (all missing), no history yet.
    for (int line = 0; line < 6; ++line) {
        out.clear();
        anl.observe({region + line * 64u, 42, true}, out);
        EXPECT_TRUE(out.empty());
    }
    // Region terminates.
    anl.onEviction(region);

    // Second residency: the first miss prefetches the learned degree.
    out.clear();
    anl.observe({region, 42, true}, out);
    EXPECT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], region + 64u);
    EXPECT_EQ(out[5], region + 6u * 64u);
}

TEST(Anl, PrefetchesClampToRegionBoundary)
{
    AnlConfig cfg;
    cfg.lineBytes = 64;
    AnlPrefetcher anl(cfg);
    std::vector<Addr> out;
    const Addr region = 0x4000;
    // Learn a large degree (12 lines).
    for (int line = 0; line < 12; ++line)
        anl.observe({region + line * 64u, 7, true}, out);
    anl.onEviction(region);
    out.clear();
    // Trigger near the end of the region: only 3 lines remain.
    anl.observe({region + 12 * 64u, 7, true}, out);
    EXPECT_EQ(out.size(), 3u);
    for (Addr a : out)
        EXPECT_LT(a, region + 1024u);
}

TEST(Anl, DistinctDegreesPerPcAndRegion)
{
    AnlConfig cfg;
    cfg.lineBytes = 64;
    AnlPrefetcher anl(cfg);
    std::vector<Addr> out;
    const Addr dense = 0x10000, sparse = 0x20000;
    for (int line = 0; line < 10; ++line)
        anl.observe({dense + line * 64u, 42, true}, out);
    for (int line = 0; line < 2; ++line)
        anl.observe({sparse + line * 64u, 42, true}, out);
    anl.onEviction(dense);
    anl.onEviction(sparse);

    out.clear();
    anl.observe({dense, 42, true}, out);
    EXPECT_EQ(out.size(), 10u);
    out.clear();
    anl.observe({sparse, 42, true}, out);
    EXPECT_EQ(out.size(), 2u);
}

TEST(Anl, VictimKeepsDenseEntries)
{
    AnlConfig cfg;
    cfg.entries = 2;
    cfg.lineBytes = 64;
    AnlPrefetcher anl(cfg);
    std::vector<Addr> out;
    // Entry A: high degree. Entry B: low degree.
    for (int line = 0; line < 12; ++line)
        anl.observe({0x10000 + line * 64u, 1, true}, out);
    anl.observe({0x20000, 2, true}, out);
    // Allocating a third entry must evict B (lower max(CD, LD)).
    anl.observe({0x30000, 3, true}, out);
    bool dense_alive = false, sparse_alive = false;
    for (std::uint32_t i = 0; i < anl.capacity(); ++i) {
        const auto e = anl.entry(i);
        if (!e.valid)
            continue;
        if (e.region == 0x10000 / 1024)
            dense_alive = true;
        if (e.region == 0x20000 / 1024 && e.pc == 2)
            sparse_alive = true;
    }
    EXPECT_TRUE(dense_alive);
    EXPECT_FALSE(sparse_alive);
}

TEST(Anl, NoPrefetchWithoutHistory)
{
    AnlPrefetcher anl(AnlConfig{});
    std::vector<Addr> out;
    anl.observe({0x5000, 9, true}, out);
    anl.observe({0x5040, 9, true}, out);
    EXPECT_TRUE(out.empty());
}

TEST(Anl, EndToEndCoversBucketScans)
{
    // Synthetic bucket workload: repeated sequential scans over a few
    // dense regions; ANL must reach high coverage after warm-up.
    SysConfig cfg;
    System sys(cfg);
    AnlConfig anl_cfg;
    anl_cfg.lineBytes = cfg.lineBytes;
    sys.mem().setPrefetcher(std::make_unique<AnlPrefetcher>(anl_cfg));
    auto &core = sys.core();

    Arena arena(8 << 20);
    float *buckets = arena.alloc<float>(4 * 1024 * 1024 / 2);

    // Access pattern: scan bucket b (dense: 768 B) then hop; repeat so
    // regions terminate and re-fill.
    for (int round = 0; round < 30; ++round) {
        for (int b = 0; b < 16; ++b) {
            const float *base = buckets + b * 4096;
            for (int off = 0; off < 768; off += 4)
                core.load(reinterpret_cast<Addr>(base + off / 4), 77);
        }
        // Thrash L2 between rounds so the bucket regions terminate.
        // One access per region keeps the thrash stream's ANL degree
        // at 1 (it cannot displace the dense bucket entries); the
        // 1088 B stride is co-prime with the set count so the whole
        // L2 is swept.
        for (int k = 0; k < 8000; ++k)
            core.load(reinterpret_cast<Addr>(buckets + 65536 + k * 272),
                      78);
    }
    const auto &st = sys.mem().stats;
    EXPECT_GT(st.pfIssued, 100u);
    EXPECT_GT(st.pfHitsTimely + st.pfHitsLate, st.pfIssued / 4);
}

/**
 * An obviously-correct ANL table: the same policy as AnlPrefetcher,
 * written with early exits and short-circuit tests straight from the
 * specification (find the first match; victim = the first invalid
 * entry, else the earliest entry of lowest max(CD, LD)).
 */
class NaiveAnl
{
  public:
    explicit NaiveAnl(const AnlConfig &config)
        : cfg(config), table(config.entries)
    {
    }

    void
    observe(const sim::PrefetchObservation &obs, std::vector<Addr> &out)
    {
        const std::uint32_t pc_tag = obs.pc & 0xfffu;
        const std::uint64_t region = obs.addr / cfg.regionBytes;
        Entry *hit = nullptr;
        for (Entry &e : table) {
            if (e.valid && e.pcTag == pc_tag && e.region == region) {
                hit = &e;
                break;
            }
        }
        std::uint32_t degree = 0;
        if (!hit) {
            for (const Entry &e : table)
                if (e.valid && e.pcTag == pc_tag)
                    degree = std::max({degree, e.ld, e.cd});
            if (degree < 2)
                degree = 0;
            degree = std::min(degree, 16u);
            hit = &table[victim()];
            *hit = Entry{true, pc_tag, region, 1, degree};
        } else {
            if (hit->cd < cfg.maxDegree)
                ++hit->cd;
            degree = hit->ld;
        }
        if (obs.miss && degree > 0) {
            const Addr region_end = (region + 1) * cfg.regionBytes;
            Addr next = (obs.addr / cfg.lineBytes + 1) * cfg.lineBytes;
            for (std::uint32_t i = 0; i < degree && next < region_end;
                 ++i, next += cfg.lineBytes)
                out.push_back(next);
            hit->ld = 0;
        }
    }

    void
    onEviction(Addr line_addr)
    {
        const std::uint64_t region = line_addr / cfg.regionBytes;
        for (Entry &e : table) {
            if (e.valid && e.region == region && e.cd > 0) {
                e.ld = e.cd;
                e.cd = 0;
            }
        }
    }

    AnlPrefetcher::EntryView
    entry(std::uint32_t idx) const
    {
        const Entry &e = table[idx];
        return {e.valid, e.cd, e.ld, e.region, e.pcTag};
    }

  private:
    struct Entry {
        bool valid = false;
        std::uint32_t pcTag = 0;
        std::uint64_t region = 0;
        std::uint32_t cd = 0;
        std::uint32_t ld = 0;
    };

    std::size_t
    victim() const
    {
        std::size_t best = 0;
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (!table[i].valid)
                return i;
            if (std::max(table[i].cd, table[i].ld) <
                std::max(table[best].cd, table[best].ld))
                best = i;
        }
        return best;
    }

    AnlConfig cfg;
    std::vector<Entry> table;
};

/** Every field of an entry, comparable and printable. */
auto
fields(const AnlPrefetcher::EntryView &e)
{
    return std::make_tuple(e.valid, e.cd, e.ld, e.region, e.pc);
}

TEST(Anl, MatchesNaiveTableOnRandomStream)
{
    // Few load sites and few regions keep the table churning: entries
    // are found, inherit degrees, terminate and get displaced, and many
    // share one max(CD, LD), so the victim tie-break decides often.
    for (const std::uint32_t entries : {4u, 16u}) {
        SCOPED_TRACE("entries=" + std::to_string(entries));
        AnlConfig cfg;
        cfg.entries = entries;
        cfg.lineBytes = 64;
        AnlPrefetcher anl(cfg);
        NaiveAnl ref(cfg);
        Rng rng(entries);
        std::vector<Addr> got, want;
        std::uint64_t prefetched = 0;
        for (int step = 0; step < 40000; ++step) {
            const Addr addr = 0x40000 + rng.uniformInt(24 * 1024);
            if (rng.uniform() < 0.25) {
                anl.onEviction(addr & ~Addr(63));
                ref.onEviction(addr & ~Addr(63));
            } else {
                // PCs 0x1003 and 0x3 share a 12-bit tag.
                const sim::PcId pc =
                    std::array<sim::PcId, 4>{3, 5, 9, 0x1003}
                        [rng.uniformInt(4)];
                const sim::PrefetchObservation obs{addr, pc,
                                                   rng.uniform() < 0.7};
                got.clear();
                want.clear();
                anl.observe(obs, got);
                ref.observe(obs, want);
                ASSERT_EQ(got, want) << "step " << step;
                prefetched += got.size();
            }
            for (std::uint32_t i = 0; i < entries; ++i)
                ASSERT_EQ(fields(anl.entry(i)), fields(ref.entry(i)))
                    << "step " << step << " entry " << i;
        }
        EXPECT_GT(prefetched, 1000u);
    }
}

// ----------------------------------------------------------------- NPU

TEST(Npu, MemoryMatchesPaperTable3)
{
    for (auto [pes, kb] : std::initializer_list<std::pair<int, double>>{
             {2, 10.5}, {4, 18.8}, {8, 35.3}}) {
        NpuConfig cfg;
        cfg.pes = pes;
        NpuModel npu(cfg);
        EXPECT_NEAR(npu.memoryKB(), kb, 0.8) << pes << " PEs";
    }
}

TEST(Npu, AreaMatchesPaperTable3)
{
    for (auto [pes, um2] : std::initializer_list<std::pair<int, double>>{
             {2, 920.0}, {4, 1661.0}, {8, 3144.0}}) {
        NpuConfig cfg;
        cfg.pes = pes;
        NpuModel npu(cfg);
        EXPECT_NEAR(npu.areaUm2(), um2, 25.0) << pes << " PEs";
    }
}

TEST(Npu, MorePesFewerCycles)
{
    tartan::sim::Rng rng(3);
    tartan::nn::MlpConfig mc;
    mc.layers = {50, 1024, 512, 1};
    tartan::nn::Mlp mlp(mc, rng);
    NpuConfig two, four, eight;
    two.pes = 2;
    four.pes = 4;
    eight.pes = 8;
    const auto c2 = NpuModel(two).inferenceCycles(mlp.config().layers);
    const auto c4 = NpuModel(four).inferenceCycles(mlp.config().layers);
    const auto c8 = NpuModel(eight).inferenceCycles(mlp.config().layers);
    EXPECT_GT(c2, c4);
    EXPECT_GT(c4, c8);
    // Near-linear scaling for a large net.
    EXPECT_NEAR(static_cast<double>(c2) / c4, 2.0, 0.2);
}

TEST(Npu, IntegratedBeatsCoprocessorForSmallNets)
{
    // Frequent small inferences (the AXAR case): the co-processor's
    // 104-cycle messages dominate (paper Fig. 8).
    tartan::sim::Rng rng(5);
    tartan::nn::MlpConfig mc;
    mc.layers = {6, 16, 16, 1};
    tartan::nn::Mlp mlp(mc, rng);

    SysConfig sys_cfg;
    auto run = [&](NpuPlacement placement) {
        System sys(sys_cfg);
        NpuConfig cfg;
        cfg.placement = placement;
        NpuModel npu(cfg);
        float in[6] = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f};
        float out[1];
        for (int i = 0; i < 1000; ++i)
            npu.infer(sys.core(), mlp, in, out);
        return sys.core().cycles();
    };
    EXPECT_LT(run(NpuPlacement::Integrated),
              run(NpuPlacement::Coprocessor));
}

TEST(Npu, InferMatchesLutForward)
{
    tartan::sim::Rng rng(7);
    tartan::nn::MlpConfig mc;
    mc.layers = {4, 8, 2};
    tartan::nn::Mlp mlp(mc, rng);
    SysConfig sys_cfg;
    System sys(sys_cfg);
    NpuModel npu(NpuConfig{});
    float in[4] = {0.3f, -0.1f, 0.7f, 0.2f};
    float got[2], want[2];
    tartan::nn::SigmoidLut lut;
    mlp.forwardLut(in, want, lut);
    npu.infer(sys.core(), mlp, in, got);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[1], want[1]);
    EXPECT_EQ(npu.stats().invocations, 1u);
}

TEST(Npu, ConfigureChargesWeightUpload)
{
    tartan::sim::Rng rng(9);
    tartan::nn::MlpConfig mc;
    mc.layers = {50, 1024, 512, 1};
    tartan::nn::Mlp mlp(mc, rng);
    SysConfig sys_cfg;
    System sys(sys_cfg);
    NpuModel npu(NpuConfig{});
    npu.configure(sys.core(), mlp);
    // ~580k parameters -> tens of thousands of FIFO messages.
    EXPECT_GT(sys.core().cycles(), 10000u);
}

// ---------------------------------------------------------------- Area

TEST(Area, TotalsMatchPaperTable4)
{
    AreaModel model(4, 4);
    // Paper: OVEC 258, NPU 1661, ANL 30, FCP ~1; total 1949 um^2.
    EXPECT_NEAR(model.totalAreaUm2(), 1949.0, 60.0);
    // Memory ~19.3 KB.
    EXPECT_NEAR(model.totalMemoryBytes() / 1024.0, 19.3, 0.5);
    // Die fraction of order 1e-5 ("0.001%").
    EXPECT_LT(model.dieFraction(), 3e-5);
    EXPECT_GT(model.dieFraction(), 3e-6);
}

TEST(Area, RowsCoverAllComponents)
{
    AreaModel model;
    std::vector<std::string> names;
    for (const auto &row : model.rows())
        names.push_back(row.component);
    EXPECT_EQ(names.size(), 4u);
    EXPECT_NE(std::find(names.begin(), names.end(), "OVEC"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "NPU"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ANL"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "FCP"), names.end());
}

TEST(Area, AnlFootprintTiny)
{
    AreaModel model;
    for (const auto &row : model.rows()) {
        if (row.component == "ANL") {
            EXPECT_EQ(row.memoryBytes, 120.0 * 4);
            // >1000x smaller than Bingo's >100 KB per core.
            EXPECT_LT(row.memoryBytes / 4, 100.0 * 1024 / 500);
        }
    }
}

} // namespace
