/**
 * @file
 * System construction from a SysConfig.
 */

#include "sim/system.hh"

#include <string>

#include "sim/bingo.hh"
#include "sim/cpistack.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tartan::sim {

System::System(const SysConfig &config) : cfg(config)
{
    if (cfg.fcpEnabled) {
        fcpIndexing = std::make_unique<FcpIndexing>(
            cfg.fcpRegionBytes, cfg.lineBytes, cfg.fcpXorBits);
        fcpReplacement = std::make_unique<FcpReplacement>();
        fcpReplacement->regionBytes = cfg.fcpRegionBytes;
        fcpReplacement->func = cfg.fcpFunc;
    }

    CacheParams l3p;
    l3p.name = "l3";
    l3p.sizeBytes = cfg.l3Size;
    l3p.assoc = cfg.l3Assoc;
    l3p.lineBytes = cfg.lineBytes;
    l3p.latency = cfg.l3Latency;
    if (cfg.fcpEnabled && cfg.fcpAtL3) {
        l3p.indexing = fcpIndexing.get();
        l3p.fcp = fcpReplacement.get();
    }
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

    if (cfg.fcpEnabled) {
        mp.l2.indexing = fcpIndexing.get();
        mp.l2.fcp = fcpReplacement.get();
    }

    mp.l3Latency = cfg.l3Latency;
    mp.dramLatency = cfg.dramLatency;

    const std::uint32_t n = cfg.simCores > 0 ? cfg.simCores : 1;
    if (n > 1) {
        // The uncore exists only on a multi-core machine; single-core
        // paths keep a null hook so their walk (and every historical
        // payload) is byte-identical.
        UncoreParams up = cfg.uncore;
        up.lineBytes = cfg.lineBytes;
        uncoreModel = std::make_unique<Uncore>(up, l3Cache.get());
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
        // Epoch-sampler probes reference the same live storage the
        // StatsRegistry registers, so samples and end-of-run dumps are
        // consistent by construction.
        cfg.trace->addProbe("l1Misses", &path->l1().stats().misses);
        cfg.trace->addProbe("l2Misses", &path->l2().stats().misses);
        cfg.trace->addProbe("l3Misses", &l3Cache->stats().misses);
        cfg.trace->addProbe("dramReads", &path->stats.dramReads);
        cfg.trace->addProbe("pfIssued", &path->stats.pfIssued);
        cfg.trace->addProbe("pfHitsTimely", &path->stats.pfHitsTimely);
        cfg.trace->addProbe("pfHitsLate", &path->stats.pfHitsLate);
        // Per-epoch CPI-stack deltas: one probe per category, sampling
        // the same stable storage the stats registry references.
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

namespace {

const char *
prefetcherName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None:
        return "none";
      case PrefetcherKind::NextLine:
        return "nextline";
      case PrefetcherKind::Bingo:
        return "bingo";
    }
    return "unknown";
}

const char *
fcpFuncName(FcpReplacement::Func func)
{
    switch (func) {
      case FcpReplacement::Func::XPlus1:
        return "x+1";
      case FcpReplacement::Func::TwoX:
        return "2x";
      case FcpReplacement::Func::XSquared:
        return "x^2";
    }
    return "unknown";
}

} // namespace

void
System::registerStats(StatsRegistry &registry)
{
    StatsGroup &config = registry.group("config");
    config.set("lineBytes", double(cfg.lineBytes));
    config.set("l1Size", double(cfg.l1Size));
    config.set("l1Assoc", double(cfg.l1Assoc));
    config.set("l1Latency", double(cfg.l1Latency));
    config.set("l2Size", double(cfg.l2Size));
    config.set("l2Assoc", double(cfg.l2Assoc));
    config.set("l2Latency", double(cfg.l2Latency));
    config.set("l3Size", double(cfg.l3Size));
    config.set("l3Assoc", double(cfg.l3Assoc));
    config.set("l3Latency", double(cfg.l3Latency));
    config.set("dramLatency", double(cfg.dramLatency));
    config.set("numCores", double(cfg.numCores));
    config.set("issueWidth", double(cfg.core.issueWidth));
    config.set("missOverlap", double(cfg.core.missOverlap));
    config.set("vectorLanes", double(cfg.core.vectorLanes));
    config.set("prefetcher", std::string(prefetcherName(cfg.prefetcher)));
    config.set("fcpEnabled", double(cfg.fcpEnabled));
    if (cfg.fcpEnabled) {
        config.set("fcpRegionBytes", double(cfg.fcpRegionBytes));
        config.set("fcpXorBits", double(cfg.fcpXorBits));
        config.set("fcpFunc", std::string(fcpFuncName(cfg.fcpFunc)));
        config.set("fcpAtL3", double(cfg.fcpAtL3));
    }
    config.set("trackUdm", double(cfg.trackUdm));
    config.set("traceEnabled", double(cfg.trace != nullptr));
    config.set("faultsEnabled", double(cfg.faults != nullptr));
    if (cores.size() > 1) {
        // Uncore knobs are echoed only on a multi-core machine so
        // single-core stats dumps stay byte-identical.
        config.set("simCores", double(cores.size()));
        config.set("l3Slices", double(cfg.uncore.l3Slices));
        config.set("xbarHopLatency", double(cfg.uncore.xbarHopLatency));
        config.set("dramBanks", double(cfg.uncore.dramBanks));
        config.set("dramRowBytes", double(cfg.uncore.dramRowBytes));
        config.set("coherenceLatency",
                   double(cfg.uncore.coherenceLatency));
    }

    // The CPI taxonomy is part of every manifest so a stats dump is
    // self-describing about which category schema its cpi groups use.
    registry.setMeta("cpiTaxonomyVersion", double(kCpiTaxonomyVersion));
    registry.setMeta("cpiCategories", cpiCategoryList());

    // Core 0 keeps the historical group names; extra cores and the
    // coherence fabric get their own groups only when they exist.
    cores[0]->registerStats(registry.group("core"));
    paths[0]->registerStats(registry.group("mem"));
    l3Cache->registerStats(registry.group("l3"));
    for (std::size_t i = 1; i < cores.size(); ++i) {
        cores[i]->registerStats(
            registry.group("core" + std::to_string(i)));
        paths[i]->registerStats(
            registry.group("mem" + std::to_string(i)));
    }
    if (uncoreModel)
        uncoreModel->registerStats(registry.group("uncore"));
}

} // namespace tartan::sim
