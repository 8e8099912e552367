/**
 * @file
 * Unit tests for the JSON helpers, the bench reporter schema, and the
 * counter accounting of the memory system (drainDirty write-backs,
 * the end-to-end prefetch and DRAM-row invariants).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "../bench/bench_util.hh"
#include "../bench/report_format.hh"
#include "process_dir.hh"
#include "sim/json.hh"
#include "sim/memsystem.hh"
#include "sim/report.hh"
#include "sim/system.hh"

using namespace tartan::sim;

namespace {

/** Where the reporters' BENCH files go (set before RunEnv parses). */
const tartan::test::ProcessDir benchDir("TARTAN_BENCH_DIR", "stats_test");

} // namespace

TEST(Json, ParserHandlesEscapesAndNesting)
{
    const char *text =
        "{\"a\": [1, 2.5, -3e2], \"s\": \"q\\\"\\n\\u0041\", "
        "\"o\": {\"t\": true, \"n\": null}}";
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    ASSERT_EQ(doc.find("a")->array.size(), 3u);
    EXPECT_EQ(doc.find("a")->array[2].number, -300.0);
    EXPECT_EQ(doc.find("s")->string, "q\"\nA");
    EXPECT_TRUE(doc.find("o")->find("t")->boolean);
    EXPECT_TRUE(doc.find("o")->find("n")->isNull());

    EXPECT_FALSE(json::parse("{\"a\": }", doc, &err));
    EXPECT_FALSE(json::parse("[1, 2] trailing", doc, &err));
}

TEST(Json, NumbersPrintExactIntegers)
{
    std::ostringstream os;
    json::writeNumber(os, 1234567890.0);
    os << ' ';
    json::writeNumber(os, 0.125);
    EXPECT_EQ(os.str(), "1234567890 0.125");
}

TEST(MemPathStats, DrainDirtyCountsResidentDirtyLines)
{
    SysConfig cfg;
    System sys(cfg);
    auto &mem = sys.mem();
    mem.mapSegment(0x50000, 3 * 64);

    // Three write-back stores to distinct lines: dirty in L1 only.
    mem.access(0x50000, AccessType::Store, 4, 1, 0);
    mem.access(0x50040, AccessType::Store, 4, 1, 0);
    mem.access(0x50080, AccessType::Store, 4, 1, 0);
    const std::uint64_t before = mem.stats.l3Writebacks;
    const std::uint64_t dirty =
        mem.l1().dirtyLines() + mem.l2().dirtyLines();
    EXPECT_GE(dirty, 3u);

    mem.drainDirty();
    EXPECT_EQ(mem.stats.l3Writebacks, before + dirty);
}

TEST(Bench, GeomeanOfNoPositiveValuesIsNaN)
{
    // The historical 0.0 flowed into normalised columns as a fake
    // baseline; degenerate inputs must be unmistakable instead.
    EXPECT_TRUE(std::isnan(tartan::bench::geomean({})));
    EXPECT_TRUE(std::isnan(tartan::bench::geomean({0.0, -3.0})));
    // Non-positive values are skipped, not poisoning the rest.
    EXPECT_DOUBLE_EQ(tartan::bench::geomean({2.0, 8.0, 0.0}), 4.0);
}

TEST(Bench, NonFiniteMetricsRenderAsNa)
{
    // A NaN metric serialises as JSON null and must render "n/a" in
    // RESULTS.md, never a fake 0.
    std::ostringstream os;
    json::writeNumber(os, tartan::bench::geomean({}));
    EXPECT_EQ(os.str(), "null");

    json::Value v;
    ASSERT_TRUE(json::parse("null", v));
    EXPECT_EQ(tartan::bench::formatMetric(v), "n/a");

    ASSERT_TRUE(json::parse("1.5", v));
    EXPECT_EQ(tartan::bench::formatMetric(v), "1.5");
}

TEST(Bench, QuarantinedCellsMarkPlaceholders)
{
    // A clean sweep renders no note, so RESULTS.md stays as it was.
    json::Value clean;
    ASSERT_TRUE(json::parse(
        "{\"campaign\": {\"simulated\": 4, \"failed\": 0}}", clean));
    EXPECT_EQ(tartan::bench::formatQuarantine(clean), "");

    json::Value failing;
    ASSERT_TRUE(json::parse(
        "{\"campaign\": {\"simulated\": 4, \"failed\": 2},"
        " \"failures\": ["
        "{\"cell\": \"shared/N4\", \"class\": \"timeout\","
        " \"detail\": \"d\", \"attempts\": 1},"
        "{\"cell\": \"fcp/N4\", \"class\": \"crash\","
        " \"detail\": \"d\", \"attempts\": 2}]}",
        failing));
    EXPECT_EQ(tartan::bench::formatQuarantine(failing),
              "Quarantined: 2 cell(s) failed; their rows are "
              "placeholders.\n\n"
              "- `shared/N4`: timeout, 1 attempt(s)\n"
              "- `fcp/N4`: crash, 2 attempt(s)\n\n");
}

TEST(MemPathStats, DrainDirtyIsIdempotent)
{
    SysConfig cfg;
    System sys(cfg);
    auto &mem = sys.mem();

    mem.access(0x60000, AccessType::Store, 4, 1, 0);
    mem.access(0x60040, AccessType::Store, 4, 1, 0);

    mem.drainDirty();
    const std::uint64_t after_first = mem.stats.l3Writebacks;
    EXPECT_GT(after_first, 0u);

    // A second drain (e.g. a second finish() after the run already
    // drained) must not double-count the still-resident dirty lines.
    mem.drainDirty();
    EXPECT_EQ(mem.stats.l3Writebacks, after_first);
}

TEST(MemPathStats, PrefetchInvariantsHoldEndToEnd)
{
    SysConfig cfg;
    cfg.prefetcher = PrefetcherKind::NextLine;
    System sys(cfg);
    auto &mem = sys.mem();

    // Sequential stream triggers prefetches; strided revisits consume
    // some timely, some late; stores exercise the write-back path.
    Cycles now = 0;
    for (Addr a = 0x100000; a < 0x100000 + 256 * 64; a += 64) {
        auto res = mem.access(a, AccessType::Load, 4, 7, now);
        now += res.latency;
        if ((a & 0x1c0) == 0)
            mem.access(a, AccessType::Store, 4, 7, now);
    }
    EXPECT_GT(mem.stats.pfIssued, 0u);

    // The prefetch-accounting invariants (proposals == issued + dropped,
    // fills == hits + unused + resident, ...) are checked here.
    mem.checkInvariants();

    ASSERT_NE(mem.prefetcher(), nullptr);
    EXPECT_EQ(mem.prefetcher()->name(), "NextLine");
    EXPECT_EQ(mem.prefetcher()->stats.issued,
              mem.stats.pfIssued + mem.stats.pfDropped);
}

TEST(MemPathStatsDeathTest, CorruptPrefetchCounterPanics)
{
    SysConfig cfg;
    cfg.prefetcher = PrefetcherKind::NextLine;
    System sys(cfg);
    auto &mem = sys.mem();
    Cycles now = 0;
    for (Addr a = 0x100000; a < 0x100000 + 64 * 64; a += 64)
        now += mem.access(a, AccessType::Load, 4, 7, now).latency;
    ASSERT_GT(mem.stats.pfIssued, 0u);
    sys.checkInvariants();  // consistent: must not abort

    ++mem.stats.pfIssued;
    EXPECT_DEATH(sys.checkInvariants(),
                 "pf proposals == MemPath issued \\+ dropped");
}

TEST(UncoreStatsDeathTest, CorruptRowHitsPanics)
{
    SysConfig cfg;
    cfg.simCores = 2;
    System sys(cfg);
    ASSERT_NE(sys.uncore(), nullptr);
    Cycles now = 0;
    for (std::size_t c = 0; c < 2; ++c)
        for (Addr a = 0; a < 32 * 64; a += 64)
            now += sys.mem(c).access(0x200000 + a, AccessType::Load, 4, 7,
                                     now).latency;
    ASSERT_GT(sys.uncore()->memctrl().reads, 0u);
    sys.checkInvariants();  // consistent: must not abort

    // The uncore exposes its counters read-only; the corruption
    // stands in for a row-accounting bug inside the memory controller.
    ++const_cast<MemCtrlStats &>(sys.uncore()->memctrl()).rowHits;
    EXPECT_DEATH(sys.checkInvariants(),
                 "row hits \\+ misses == reads \\+ writes");
}

TEST(SystemStats, FullTreeRegistersAndVerifies)
{
    SysConfig cfg;
    cfg.prefetcher = PrefetcherKind::Bingo;
    System sys(cfg);
    auto &core = sys.core();
    const std::uint32_t kid = core.registerKernel("warmup");
    {
        ScopedKernel scope(core, kid);
        for (Addr a = 0; a < 64 * 64; a += 8)
            core.load(0x200000 + a, 3);
    }

    sys.checkInvariants();

    EXPECT_EQ(sys.mem().prefetcher()->name(), "Bingo");
    const auto &kernels = core.kernels();
    ASSERT_GT(kernels.size(), kid);
    EXPECT_EQ(kernels[kid].name, "warmup");
    EXPECT_GT(kernels[kid].instructions, 0u);
}

TEST(BenchReporter, EmitsSchemaValidJson)
{
    BenchReporter rep("unit_bench", "paper expectation");
    rep.config("scale", 0.5);
    rep.config("tier", "optimized");
    rep.metric("gmeanSpeedup", 1.5);
    rep.kernelMetric("DeliBot", "wallCycles", 1000.0);
    rep.kernelMetric("DeliBot", "speedup", 2.0);
    rep.kernelMetric("FlyBot", "wallCycles", 2000.0);
    rep.note("shape check text");

    std::ostringstream os;
    rep.writeJson(os);
    std::string err;
    EXPECT_TRUE(validateBenchJson(os.str(), &err)) << err;

    json::Value doc;
    ASSERT_TRUE(json::parse(os.str(), doc, &err)) << err;
    EXPECT_EQ(doc.find("bench")->string, "unit_bench");
    EXPECT_EQ(doc.find("manifest")->find("paper")->string,
              "paper expectation");
    EXPECT_EQ(doc.find("manifest")->find("note")->string,
              "shape check text");
    EXPECT_EQ(doc.find("metrics")->find("gmeanSpeedup")->number, 1.5);
    ASSERT_EQ(doc.find("kernels")->array.size(), 2u);
    const json::Value &row = doc.find("kernels")->array[0];
    EXPECT_EQ(row.find("name")->string, "DeliBot");
    EXPECT_EQ(row.find("metrics")->find("speedup")->number, 2.0);
    EXPECT_TRUE(rep.writeFile());
}

TEST(BenchReporter, NanMetricsPassTheSchema)
{
    // A NaN metric is written as null; the document stays valid, so
    // bench_diff and report_md can read a sweep with no value to give.
    BenchReporter rep("unit_bench", "paper expectation");
    rep.metric("worst", std::nan(""));
    rep.kernelMetric("DeliBot", "interference", std::nan(""));
    std::ostringstream os;
    rep.writeJson(os);
    std::string err;
    EXPECT_TRUE(validateBenchJson(os.str(), &err)) << err;
    json::Value doc;
    ASSERT_TRUE(json::parse(os.str(), doc, &err)) << err;
    EXPECT_TRUE(doc.find("metrics")->find("worst")->isNull());
    EXPECT_TRUE(rep.writeFile());
}

TEST(BenchReporter, ValidatorRejectsMalformedDocuments)
{
    std::string err;
    EXPECT_FALSE(validateBenchJson("not json", &err));
    err.clear();
    EXPECT_FALSE(validateBenchJson("{}", &err));
    err.clear();
    // Non-numeric metric value.
    EXPECT_FALSE(validateBenchJson(
        "{\"bench\": \"b\", \"manifest\": {\"git\": \"g\", "
        "\"timestamp\": \"t\", \"paper\": \"p\"}, \"config\": {}, "
        "\"metrics\": {\"x\": \"one\"}, \"kernels\": []}",
        &err));
    EXPECT_NE(err.find("not a number"), std::string::npos);
    // Kernel row without a name.
    err.clear();
    EXPECT_FALSE(validateBenchJson(
        "{\"bench\": \"b\", \"manifest\": {\"git\": \"g\", "
        "\"timestamp\": \"t\", \"paper\": \"p\"}, \"config\": {}, "
        "\"metrics\": {}, \"kernels\": [{\"metrics\": {}}]}",
        &err));
    EXPECT_NE(err.find("name missing"), std::string::npos);
}
