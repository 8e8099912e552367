/**
 * @file
 * Fig. 10 reproduction: prefetcher comparison across all six robots —
 * no prefetcher, ANL, plain Next-Line, and a Bingo-like spatial
 * prefetcher. Reports normalised execution time, miss coverage and
 * prefetch accuracy, plus the metadata storage of ANL vs Bingo. The
 * 24 runs (6 robots x 4 prefetchers) execute through a RunPool; the
 * no-prefetcher run is the baseline machine unchanged, so it is also
 * the normalisation base.
 */

#include "bench_util.hh"

#include "core/anl.hh"
#include "sim/bingo.hh"

using namespace tartan::bench;
using namespace tartan::workloads;

namespace {

/** The machine variant for one prefetcher configuration. */
MachineSpec
pfSpec(int pf_kind)
{
    auto spec = MachineSpec::baseline();
    switch (pf_kind) {
      case 0:  // none
        break;
      case 1:  // ANL
        spec.useAnl = true;
        break;
      case 2:  // Next-Line
        spec.sys.prefetcher = tartan::sim::PrefetcherKind::NextLine;
        break;
      case 3:  // Bingo
        spec.sys.prefetcher = tartan::sim::PrefetcherKind::Bingo;
        break;
    }
    return spec;
}

struct PfResult {
    double norm_time;
    double coverage;
    double accuracy;
};

PfResult
summarizePf(const RunResult &res, double base_cycles)
{
    PfResult out;
    out.norm_time =
        base_cycles > 0 ? double(res.wallCycles) / base_cycles : 1.0;
    const double hits = double(res.pfHitsTimely + res.pfHitsLate);
    out.coverage = (hits + res.l2Misses) > 0
                       ? hits / (hits + double(res.l2Misses))
                       : 0.0;
    out.accuracy =
        res.pfIssued > 0 ? hits / double(res.pfIssued) : 0.0;
    return out;
}

} // namespace

int
main()
{
    BenchReporter rep("fig10_prefetch",
                      "ANL: high coverage/accuracy everywhere; NL "
                      "untimely (low benefit); Bingo slightly faster "
                      "but needs >100KB/core vs ANL's 120B (ANL ~85% "
                      "of Bingo's gain at ~1000x less area); "
                      "compute-bound robots (PatrolBot) barely move");
    rep.config("prefetchers", "No ANL NL Bi");
    rep.config("tier", "optimized");

    const char *labels[] = {"No", "ANL", "NL", "Bi"};
    RunPool pool;
    std::vector<Cell<RunResult>> jobs;
    for (const auto &robot : robotSuite())
        for (int pf = 0; pf < 4; ++pf)
            jobs.push_back(cell(std::string(robot.name) + "/" + labels[pf],
                                robot.run, pfSpec(pf),
                                options(SoftwareTier::Optimized)));
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::printf("%-10s", "robot");
    for (const char *l : labels)
        std::printf(" | %-4s time cov  acc ", l);
    std::printf("\n");

    std::vector<double> anl_gain, bingo_gain;
    std::size_t idx = 0;
    for (const auto &robot : robotSuite()) {
        // pfSpec(0) is MachineSpec::baseline(): "No" is the base run.
        const double base_cycles = double(results[idx].wallCycles);
        std::printf("%-10s", robot.name);
        for (int pf = 0; pf < 4; ++pf) {
            const RunResult &res = results[idx++];
            const PfResult r = summarizePf(res, base_cycles);
            std::printf(" | %9.3f %3.0f%% %3.0f%%", r.norm_time,
                        100 * r.coverage, 100 * r.accuracy);
            const std::string row =
                std::string(robot.name) + "/" + labels[pf];
            reportCpi(rep, row, res);
            rep.kernelMetric(row, "normTime", r.norm_time);
            rep.kernelMetric(row, "coverage", r.coverage);
            rep.kernelMetric(row, "accuracy", r.accuracy);
            if (pf == 1)
                anl_gain.push_back(1.0 / r.norm_time);
            if (pf == 3)
                bingo_gain.push_back(1.0 / r.norm_time);
        }
        std::printf("\n");
    }

    std::printf("\nGMean speedup: ANL %.3fx, Bingo %.3fx -> ANL "
                "captures %.0f%% of Bingo's gain\n",
                geomean(anl_gain), geomean(bingo_gain),
                100.0 * (geomean(anl_gain) - 1.0) /
                    std::max(1e-9, geomean(bingo_gain) - 1.0));

    tartan::core::AnlPrefetcher anl(tartan::core::AnlConfig{});
    tartan::sim::BingoPrefetcher bingo(32);
    std::printf("Metadata: ANL %llu B/core vs Bingo %llu B/core "
                "(paper: 120 B vs >100 KB)\n",
                static_cast<unsigned long long>(anl.storageBits() / 8),
                static_cast<unsigned long long>(bingo.storageBits() / 8));
    rep.metric("gmeanSpeedupAnl", geomean(anl_gain));
    rep.metric("gmeanSpeedupBingo", geomean(bingo_gain));
    rep.metric("anlShareOfBingoGain",
               (geomean(anl_gain) - 1.0) /
                   std::max(1e-9, geomean(bingo_gain) - 1.0));
    rep.metric("anlMetadataBytes", double(anl.storageBits() / 8));
    rep.metric("bingoMetadataBytes", double(bingo.storageBits() / 8));
    rep.note("paper: ANL ~85% of Bingo's gain; 120 B vs >100 KB "
             "metadata per core");
    return campaignExit(rep);
}
