/**
 * @file
 * Fig. 9 reproduction: nearest-neighbour search on MoveBot and
 * HomeBot with Brute force, VLN (vectorised LSH), FLANN-style scalar
 * LSH and a k-d tree, each with and without the ANL prefetcher.
 * Reports normalised execution time and L2 misses (normalised to
 * brute force without ANL). The 16 runs execute through a RunPool.
 */

#include "bench_util.hh"

using namespace tartan::bench;
using namespace tartan::workloads;

int
main()
{
    BenchReporter rep("fig09_nns",
                      "VLN beats brute 5.29x, FLANN 1.7x, k-d tree "
                      "2.43x (NNS kernel); VLN+ANL reaches 9.37x over "
                      "brute; k-d tree suffers dependent misses");
    rep.config("backends", "B=brute V=vln F=flann-lsh K=kdtree; "
                           "'+' suffix = ANL prefetcher on");
    rep.config("homeBotScale", 2.0);

    struct Backend {
        const char *label;
        NnsKind kind;
    };
    const Backend backends[] = {{"B", NnsKind::Brute},
                                {"V", NnsKind::Vln},
                                {"F", NnsKind::Lsh},
                                {"K", NnsKind::KdTree}};

    struct Target {
        const char *name;
        tartan::workloads::RobotFn run;
        std::uint64_t seed;
    };
    // HomeBot runs at 2x scale so its surfel map exceeds the L2 and
    // the methods' memory behaviour is exposed.
    const Target targets[] = {{"MoveBot", runMoveBot, 123},
                              {"HomeBot", runHomeBot, 42}};

    RunPool pool;
    std::vector<Cell<RunResult>> jobs;
    for (const auto &target : targets) {
        for (const auto &backend : backends) {
            for (bool anl : {false, true}) {
                auto spec = MachineSpec::baseline();
                spec.useAnl = anl;
                const double scale =
                    std::string(target.name) == "HomeBot" ? 2.0 : 1.0;
                auto opt = options(SoftwareTier::Optimized, scale,
                                   target.seed);
                opt.nns = backend.kind;
                opt.nnsExplicit = true;
                jobs.push_back(cell(std::string(target.name) + "/" +
                                        backend.label + (anl ? "+" : ""),
                                    target.run, spec, opt));
            }
        }
    }
    const std::vector<RunResult> results =
        runAll(rep, pool, std::move(jobs));

    std::size_t r = 0;
    for (const auto &target : targets) {
        std::printf("\n-- %s --\n", target.name);
        std::printf("%-4s %14s %12s %10s %10s\n", "cfg", "cycles",
                    "l2misses", "norm.time", "norm.miss");
        double base_cycles = 0, base_misses = 0;
        for (const auto &backend : backends) {
            for (bool anl : {false, true}) {
                const RunResult &res = results[r++];
                if (backend.kind == NnsKind::Brute && !anl) {
                    base_cycles = double(res.wallCycles);
                    base_misses = double(res.l2Misses);
                }
                const std::string row = std::string(target.name) + "/" +
                                        backend.label + (anl ? "+" : "");
                reportRun(rep, row, res);
                reportCpi(rep, row, res);
                rep.kernelMetric(row, "normTime",
                                 double(res.wallCycles) / base_cycles);
                rep.kernelMetric(row, "normMisses",
                                 base_misses > 0
                                     ? double(res.l2Misses) / base_misses
                                     : 0.0);
                std::printf("%s%-3s %14llu %12llu %10.3f %10.3f\n",
                            backend.label, anl ? "+" : "",
                            static_cast<unsigned long long>(
                                res.wallCycles),
                            static_cast<unsigned long long>(
                                res.l2Misses),
                            double(res.wallCycles) / base_cycles,
                            base_misses > 0
                                ? double(res.l2Misses) / base_misses
                                : 0.0);
            }
        }
    }
    rep.note("shape: V < F < K < B in time; '+' (ANL) improves every "
             "method; V+ is the overall best");
    std::printf("\nShape check: V < F < K < B in time; '+' (ANL) "
                "improves every method; V+ is the overall best.\n");
    return campaignExit(rep);
}
