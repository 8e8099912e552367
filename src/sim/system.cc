/**
 * @file
 * System construction from a SysConfig.
 */

#include "sim/system.hh"

#include <optional>
#include <string>

#include "sim/bingo.hh"
#include "sim/cpistack.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tartan::sim {

System::System(const SysConfig &config) : cfg(config)
{
    std::optional<FcpParams> fcp;
    if (cfg.fcpEnabled)
        fcp = FcpParams{cfg.fcpRegionBytes, cfg.fcpXorBits, cfg.fcpFunc};

    CacheParams l3p;
    l3p.name = "l3";
    l3p.sizeBytes = cfg.l3Size;
    l3p.assoc = cfg.l3Assoc;
    l3p.lineBytes = cfg.lineBytes;
    l3p.latency = cfg.l3Latency;
    if (cfg.fcpAtL3)
        l3p.fcp = fcp;
    l3Cache = std::make_unique<Cache>(l3p);

    MemPathParams mp;
    mp.l1.name = "l1d";
    mp.l1.sizeBytes = cfg.l1Size;
    mp.l1.assoc = cfg.l1Assoc;
    mp.l1.lineBytes = cfg.lineBytes;
    mp.l1.latency = cfg.l1Latency;
    mp.l1.trackUdm = cfg.trackUdm;

    mp.l2.name = "l2";
    mp.l2.sizeBytes = cfg.l2Size;
    mp.l2.assoc = cfg.l2Assoc;
    mp.l2.lineBytes = cfg.lineBytes;
    mp.l2.latency = cfg.l2Latency;
    mp.l2.fcp = fcp;

    const std::uint32_t n = cfg.simCores > 0 ? cfg.simCores : 1;
    if (n > 1) {
        // The uncore exists only on a multi-core machine; single-core
        // paths keep a null hook so their walk (and every historical
        // payload) is byte-identical.
        uncoreModel = std::make_unique<Uncore>(cfg.uncore, l3Cache.get());
    }

    for (std::uint32_t i = 0; i < n; ++i) {
        auto p = std::make_unique<MemPath>(mp, l3Cache.get());

        switch (cfg.prefetcher) {
          case PrefetcherKind::None:
            break;
          case PrefetcherKind::NextLine:
            p->setPrefetcher(
                std::make_unique<NextLinePrefetcher>(cfg.lineBytes));
            break;
          case PrefetcherKind::Bingo:
            p->setPrefetcher(std::make_unique<BingoPrefetcher>(
                cfg.lineBytes));
            break;
        }

        if (uncoreModel) {
            const std::uint32_t id = uncoreModel->attach(p.get());
            p->attachUncore(uncoreModel.get(), id);
        }

        cores.push_back(std::make_unique<Core>(cfg.core, p.get()));
        paths.push_back(std::move(p));
    }

    // Observational hooks stay on core 0: tracing and fault plans are
    // defined against the historical single-core timeline.
    MemPath *path = paths[0].get();
    Core *coreModel = cores[0].get();

    if (cfg.trace) {
        // Epoch-sampler probes reference the components' live
        // counters, so per-epoch deltas sum to the end-of-run totals
        // by construction.
        cfg.trace->addProbe("l1Misses", &path->l1().stats().misses);
        cfg.trace->addProbe("l2Misses", &path->l2().stats().misses);
        cfg.trace->addProbe("l3Misses", &l3Cache->stats().misses);
        cfg.trace->addProbe("dramReads", &path->stats.dramReads);
        cfg.trace->addProbe("pfIssued", &path->stats.pfIssued);
        cfg.trace->addProbe("pfHitsTimely", &path->stats.pfHitsTimely);
        cfg.trace->addProbe("pfHitsLate", &path->stats.pfHitsLate);
        // Per-epoch CPI-stack deltas: one probe per category, sampling
        // the core's stable per-category storage.
        for (std::size_t i = 0; i < kNumCpiCats; ++i)
            cfg.trace->addProbe(std::string("cpi.") + cpiCatName(CpiCat(i)),
                                &coreModel->cpiTotals().cat[i]);
        path->setTrace(cfg.trace);
        coreModel->attachTrace(cfg.trace);
    }

    if (cfg.faults)
        path->setFaultInjector(cfg.faults);
}

System::~System()
{
    // Take the final partial-epoch sample while the probed counters
    // still exist; finalize() then finds the epoch already flushed.
    if (cfg.trace)
        cfg.trace->detachProbes();
}

void
System::checkInvariants() const
{
    for (const auto &c : cores)
        c->checkInvariants();
    for (const auto &p : paths)
        p->checkInvariants();
    if (uncoreModel)
        uncoreModel->checkInvariants();
}

} // namespace tartan::sim
