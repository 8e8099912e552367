/**
 * @file
 * CPI-stack accounting tests: the deterministic stall split (against
 * the thirteen-wide reference it replaced), the taxonomy name
 * round-trip, the per-kernel and machine-wide sum-to-total invariants
 * on real robot runs, and fault-injection attribution (spikes must
 * land in `fault`, never inflate the DRAM category).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <vector>

#include "sim/cpistack.hh"
#include "sim/fault.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "workloads/robots.hh"

using namespace tartan::sim;
using namespace tartan::workloads;

namespace {

WorkloadOptions
smallRun()
{
    WorkloadOptions opt;
    opt.scale = 0.35;
    return opt;
}

Cycles
faultCycles(const RunResult &res)
{
    Cycles total = 0;
    for (const auto &k : res.kernels)
        total += k.cpi[CpiCat::Fault];
    return total;
}

/**
 * The thirteen-wide split the seven-slot splitStall replaced, kept as
 * its oracle: category i of @p comp receives floor(cum_i*stall/total)
 * - floor(cum_{i-1}*stall/total), cum_i the running sum in enum order.
 */
CpiStack
referenceSplit(const CpiStack &comp, Cycles total, Cycles stall)
{
    CpiStack out;
    if (!total || !stall)
        return out;
    Cycles cum = 0;
    Cycles prev = 0;
    for (std::size_t i = 0; i < kNumCpiCats; ++i) {
        cum += comp.cat[i];
        const Cycles next = cum * stall / total;
        out.cat[i] = next - prev;
        prev = next;
    }
    return out;
}

/** The stall slots of @p comp (whose other categories must be 0). */
StallComponents
toSlots(const CpiStack &comp)
{
    StallComponents slots;
    for (std::size_t i = 0; i < kNumStallCats; ++i) {
        slots.slot[i] = comp[kStallCats[i]];
        slots.total += slots.slot[i];
    }
    return slots;
}

/** splitStall's shares of @p stall, gathered into a CPI stack. */
CpiStack
split(const StallComponents &slots, Cycles stall)
{
    CpiStack out;
    splitStall(slots, stall,
               [&](CpiCat cat, Cycles share) { out[cat] += share; });
    return out;
}

} // namespace

TEST(SplitStall, SumsExactlyToStall)
{
    CpiStack comp;
    comp[CpiCat::L2] = 14;
    comp[CpiCat::L3] = 45;
    comp[CpiCat::Dram] = 200;
    const StallComponents slots = toSlots(comp);

    // Sweep compressed stalls, including awkward non-divisors.
    for (Cycles stall : {Cycles(0), Cycles(1), Cycles(7), Cycles(13),
                         Cycles(100), Cycles(258), Cycles(259)}) {
        const CpiStack out = split(slots, stall);
        EXPECT_EQ(out.sum(), stall) << "stall=" << stall;
        EXPECT_TRUE(out == referenceSplit(comp, slots.total, stall));
    }
}

TEST(SplitStall, UncompressedStallIsExactComponents)
{
    CpiStack comp;
    comp[CpiCat::Fault] = 400;
    comp[CpiCat::PfLate] = 33;
    comp[CpiCat::L2] = 14;
    comp[CpiCat::L3] = 45;
    comp[CpiCat::Dram] = 200;
    const StallComponents slots = toSlots(comp);

    // A Dependent (uncompressed) stall pays every component exactly.
    EXPECT_TRUE(split(slots, slots.total) == comp);
}

TEST(SplitStall, DegenerateInputsYieldZero)
{
    CpiStack comp;
    comp[CpiCat::Dram] = 200;
    EXPECT_EQ(split(toSlots(comp), 0).sum(), 0u);
    EXPECT_EQ(split(StallComponents{}, 100).sum(), 0u);
}

TEST(SplitStall, MonotoneNonNegativeShares)
{
    CpiStack comp;
    comp[CpiCat::L2] = 3;
    comp[CpiCat::L3] = 1;
    comp[CpiCat::Dram] = 1000;
    const StallComponents slots = toSlots(comp);
    for (Cycles stall = 0; stall <= slots.total; stall += 17) {
        const CpiStack out = split(slots, stall);
        for (std::size_t i = 0; i < kNumCpiCats; ++i) {
            EXPECT_LE(out.cat[i], comp.cat[i]);
        }
        EXPECT_EQ(out.sum(), stall);
    }
}

// The seven-slot split against the thirteen-wide cumulative-floor
// reference, share by share: every zero/nonzero pattern of the slots,
// small, mid-range and large components, and stalls of 0, the full
// total (Dependent), the miss-overlap compression and random points of
// [0, total].
TEST(SplitStall, MatchesReferenceOnRandomInputs)
{
    std::mt19937_64 rng(0x7a27a2);
    // Components up to 2^29 keep cum * stall below 2^64 for seven
    // slots, so the reference's products never wrap.
    const Cycles ranges[] = {16, 1000, Cycles(1) << 29};
    constexpr std::size_t kPatterns = std::size_t(1) << kNumStallCats;
    std::size_t cases = 0;
    for (std::size_t round = 0; round < 200; ++round) {
        for (std::size_t pattern = 0; pattern < kPatterns; ++pattern) {
            const Cycles range = ranges[(round + pattern) % 3];
            CpiStack comp;
            for (std::size_t i = 0; i < kNumStallCats; ++i)
                if (pattern >> i & 1)
                    comp[kStallCats[i]] = 1 + rng() % range;
            const StallComponents slots = toSlots(comp);
            const Cycles total = slots.total;
            const Cycles stalls[] = {0, total, (total + 7) / 8,
                                     rng() % (total + 1)};
            for (Cycles stall : stalls) {
                ++cases;
                const CpiStack want = referenceSplit(comp, total, stall);
                const CpiStack got = split(slots, stall);
                for (std::size_t c = 0; c < kNumCpiCats; ++c)
                    ASSERT_EQ(got.cat[c], want.cat[c])
                        << cpiCatName(CpiCat(c)) << " pattern " << pattern
                        << " stall " << stall << " total " << total;
            }
        }
    }
    EXPECT_GE(cases, 100000u);
}

TEST(SplitStall, ChargesOnlyNonzeroSlotsOnceInOrder)
{
    StallComponents slots;
    slots.slot[1] = 14;  // l2
    slots.slot[3] = 200;  // dram
    slots.slot[5] = 9;  // fault
    slots.total = 223;
    std::vector<CpiCat> seen;
    splitStall(slots, 30, [&](CpiCat cat, Cycles) { seen.push_back(cat); });
    EXPECT_EQ(seen, (std::vector<CpiCat>{CpiCat::L2, CpiCat::Dram,
                                         CpiCat::Fault}));
}

TEST(CpiTaxonomy, NamesRoundTrip)
{
    for (std::size_t i = 0; i < kNumCpiCats; ++i) {
        const CpiCat cat = CpiCat(i);
        EXPECT_EQ(cpiCatFromName(cpiCatName(cat)), cat);
    }
    EXPECT_EQ(cpiCatFromName("bogus"), CpiCat::NumCats);
    EXPECT_EQ(cpiCatFromName(""), CpiCat::NumCats);
    EXPECT_EQ(cpiCatFromName("DRAM"), CpiCat::NumCats) << "names are "
        "case-sensitive schema keys";
}

TEST(CpiTaxonomy, CategoryListMatchesEnumOrder)
{
    const char *const expected[] = {
        "issue", "l1", "l2", "l3", "dram", "tlb", "pfLate", "writeback",
        "fault", "npu", "ovec", "anl", "coherence"};
    ASSERT_EQ(std::size(expected), kNumCpiCats);
    for (std::size_t i = 0; i < kNumCpiCats; ++i)
        EXPECT_STREQ(cpiCatName(CpiCat(i)), expected[i]) << "index " << i;
    EXPECT_EQ(kCpiTaxonomyVersion, 2u);
}

TEST(CpiCore, DependentMissDecomposesByLevel)
{
    SysConfig cfg;
    System sys(cfg);
    Core &core = sys.core();

    // First-touch Dependent load: full uncompressed beyond-L1 latency.
    core.load(0x10000, 1, MemDep::Dependent);
    const CpiStack &cpi = core.cpiTotals();
    EXPECT_EQ(cpi[CpiCat::L2], cfg.l2Latency);
    EXPECT_EQ(cpi[CpiCat::L3], cfg.l3Latency);
    EXPECT_EQ(cpi[CpiCat::Dram], cfg.dramLatency);
    EXPECT_EQ(cpi[CpiCat::Fault], 0u);
    EXPECT_EQ(cpi.sum(), core.cycles());
}

TEST(CpiCore, FaultSpikeLandsInFaultNotDram)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("mem:spike=1.0@400", plan));
    auto inj = plan.makeInjector("cpistack_test");

    SysConfig cfg;
    cfg.faults = inj.get();
    System faulty(cfg);
    faulty.core().load(0x10000, 1, MemDep::Dependent);

    SysConfig clean_cfg;
    System clean(clean_cfg);
    clean.core().load(0x10000, 1, MemDep::Dependent);

    const CpiStack &fc = faulty.core().cpiTotals();
    const CpiStack &cc = clean.core().cpiTotals();
    // The spike is wholly in `fault`; the hierarchy categories are
    // untouched relative to the clean machine.
    EXPECT_EQ(fc[CpiCat::Fault], 400u);
    EXPECT_EQ(cc[CpiCat::Fault], 0u);
    EXPECT_EQ(fc[CpiCat::Dram], cc[CpiCat::Dram]);
    EXPECT_EQ(fc[CpiCat::L2], cc[CpiCat::L2]);
    EXPECT_EQ(fc[CpiCat::L3], cc[CpiCat::L3]);
    EXPECT_EQ(fc.sum(), faulty.core().cycles());
}

TEST(CpiCore, StatsInvariantsHoldAfterMixedWork)
{
    SysConfig cfg;
    System sys(cfg);

    Core &core = sys.core();
    const auto knav = core.registerKernel("nav");
    const auto kmap = core.registerKernel("map");
    core.setKernel(knav);
    core.exec(1000);
    core.load(0x20000, 2, MemDep::Dependent);
    core.setKernel(kmap);
    core.exec(37); // sub-issue-width remainder exercises the flush
    core.stall(250, CpiCat::Npu);
    core.setKernel(0);

    // checkInvariants() panics if any per-kernel or machine-wide
    // sum-to-total invariant is broken; reaching the asserts below
    // means they hold.
    sys.checkInvariants();
    Cycles kernel_sum = 0;
    for (const auto &k : core.kernels()) {
        EXPECT_EQ(k.cpi.sum(), k.cycles) << "kernel " << k.name;
        kernel_sum += k.cycles;
    }
    EXPECT_EQ(kernel_sum, core.cycles());
    EXPECT_EQ(core.cpiTotals().sum(), core.cycles());
    EXPECT_EQ(core.cpiTotals()[CpiCat::Npu], 250u);
}

TEST(CpiWorkload, PerKernelStacksSumToCycles)
{
    const RunResult res = runDeliBot(MachineSpec::baseline(), smallRun());
    ASSERT_FALSE(res.kernels.empty());
    Cycles kernel_sum = 0;
    for (const auto &k : res.kernels) {
        EXPECT_EQ(k.cpi.sum(), k.cycles) << "kernel " << k.name;
        kernel_sum += k.cycles;
    }
    EXPECT_EQ(kernel_sum, res.workCycles);
}

TEST(CpiWorkload, ReservedCategoriesStayStructurallyZero)
{
    const RunResult res = runDeliBot(MachineSpec::tartan(), smallRun());
    for (const auto &k : res.kernels) {
        EXPECT_EQ(k.cpi[CpiCat::Tlb], 0u) << "kernel " << k.name;
        EXPECT_EQ(k.cpi[CpiCat::Writeback], 0u) << "kernel " << k.name;
        EXPECT_EQ(k.cpi[CpiCat::Anl], 0u) << "kernel " << k.name;
    }
}

namespace {

/** Minimal schema-valid bench document with one CPI row. */
std::string
benchDocWithStack(const std::string &stack_json,
                  const std::string &version = "2")
{
    std::string cats;
    for (std::size_t i = 0; i < kNumCpiCats; ++i) {
        if (i)
            cats += ", ";
        cats += '"';
        cats += cpiCatName(CpiCat(i));
        cats += '"';
    }
    return "{\"bench\": \"b\", \"manifest\": {\"git\": \"g\", "
           "\"timestamp\": \"t\", \"paper\": \"p\"}, \"config\": {}, "
           "\"metrics\": {}, \"kernels\": [], \"cpi\": "
           "{\"taxonomyVersion\": " + version + ", \"categories\": [" +
           cats + "], \"rows\": [{\"run\": \"r\", \"kernel\": \"k\", "
           "\"cycles\": 10, \"stack\": " + stack_json + "}]}}";
}

/** A stack JSON covering every category; @p issue fills category 0. */
std::string
fullStack(Cycles issue)
{
    std::string out = "{\"issue\": " + std::to_string(issue);
    for (std::size_t i = 1; i < kNumCpiCats; ++i) {
        out += ", \"";
        out += cpiCatName(CpiCat(i));
        out += "\": 0";
    }
    return out + "}";
}

} // namespace

TEST(CpiSchema, ValidatorAcceptsWellFormedStack)
{
    std::string err;
    EXPECT_TRUE(validateBenchJson(benchDocWithStack(fullStack(10)),
                                  &err)) << err;
}

TEST(CpiSchema, ValidatorRejectsBadStacks)
{
    std::string err;
    // Unknown category key.
    EXPECT_FALSE(validateBenchJson(
        benchDocWithStack("{\"bogus\": 10}"), &err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    // Missing categories (partial stack).
    err.clear();
    EXPECT_FALSE(validateBenchJson(
        benchDocWithStack("{\"issue\": 10}"), &err));
    EXPECT_NE(err.find("missing categories"), std::string::npos) << err;
    // Stack that does not sum to the row's cycles.
    err.clear();
    EXPECT_FALSE(validateBenchJson(
        benchDocWithStack(fullStack(7)), &err));
    EXPECT_NE(err.find("sum"), std::string::npos) << err;
    // Foreign taxonomy version.
    err.clear();
    EXPECT_FALSE(validateBenchJson(
        benchDocWithStack(fullStack(10), "99"), &err));
    EXPECT_NE(err.find("taxonomyVersion"), std::string::npos) << err;
}

TEST(CpiWorkload, InjectedSpikesShowUpInFaultCategory)
{
    const RunResult clean =
        runDeliBot(MachineSpec::baseline(), smallRun());
    EXPECT_EQ(faultCycles(clean), 0u);

    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("mem:spike=1.0@400", plan));
    auto inj = plan.makeInjector("cpistack_test");
    WorkloadOptions opt = smallRun();
    opt.faults = inj.get();
    const RunResult faulty = runDeliBot(MachineSpec::baseline(), opt);

    const Cycles spikes = faultCycles(faulty);
    EXPECT_GT(spikes, 0u);
    // Each kernel's stack still partitions its cycles exactly even
    // with the extra fault component in every miss.
    for (const auto &k : faulty.kernels)
        EXPECT_EQ(k.cpi.sum(), k.cycles) << "kernel " << k.name;
}
