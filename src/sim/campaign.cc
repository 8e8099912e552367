/**
 * @file
 * CampaignRunner implementation.
 */

#include "sim/campaign.hh"

#include <chrono>
#include <thread>
#include <utility>

#include "sim/env.hh"
#include "sim/logging.hh"
#include "sim/watchdog.hh"

namespace tartan::sim {

CampaignConfig
CampaignConfig::fromEnv()
{
    const RunEnv &env = RunEnv::get();
    CampaignConfig cfg;
    cfg.timeoutSec = env.timeoutSec;
    cfg.retries = env.retries;
    cfg.backoffMs = env.backoffMs;
    cfg.resume = env.resume;
    cfg.journalDir = env.benchDir;
    cfg.cacheDir = env.cacheDir;
    return cfg;
}

CampaignRunner::CampaignRunner(std::string driver, RunPool &pool_,
                               CampaignConfig cfg_,
                               std::uint64_t schema_version)
    : driverName(std::move(driver)), pool(pool_), cfg(std::move(cfg_)),
      schemaVersion(schema_version)
{
    if (cfg.resume) {
        std::string dir = cfg.journalDir;
        if (!dir.empty() && dir.back() != '/')
            dir += '/';
        resumePtr = std::make_unique<ResultCache>(
            dir + "RESUME_" + driverName, schemaVersion);
    }
    if (!cfg.cacheDir.empty())
        cachePtr = std::make_unique<ResultCache>(cfg.cacheDir,
                                                 schemaVersion);
}

CampaignRunner::~CampaignRunner() = default;

CellOutcome
CampaignRunner::runAttempts(const CellSpec &spec, std::uint64_t index,
                            const std::function<std::string()> &run) const
{
    CellOutcome out;
    out.index = index;
    out.label = spec.label;
    const unsigned tries = cfg.retries + 1;
    for (unsigned attempt = 1; attempt <= tries; ++attempt) {
        out.attempts = attempt;
        try {
            const auto deadline = std::chrono::milliseconds(
                static_cast<long long>(cfg.timeoutSec * 1000.0));
            ScopedCellWatch watch(deadline, spec.label);
            out.payload = run();
            out.status = CellOutcome::Status::Ok;
            out.source = CellOutcome::Source::Run;
            return out;
        } catch (const CellTimeoutError &e) {
            out.errorClass = "timeout";
            out.errorDetail = e.what();
        } catch (const CellCrashError &e) {
            out.errorClass = "crash";
            out.errorDetail = e.what();
        } catch (const std::exception &e) {
            out.errorClass = "exception";
            out.errorDetail = e.what();
        } catch (...) {
            out.errorClass = "exception";
            out.errorDetail = "unknown exception";
        }
        warn("campaign: cell '%s' attempt %u/%u failed (%s: %s)",
             spec.label.c_str(), attempt, tries, out.errorClass.c_str(),
             out.errorDetail.c_str());
        if (attempt < tries) {
            // Exponential backoff: transient host conditions (memory
            // pressure, scheduler stalls tripping the deadline) get
            // room to clear before the re-attempt.
            const auto backoff = std::chrono::milliseconds(
                static_cast<long long>(cfg.backoffMs) << (attempt - 1));
            std::this_thread::sleep_for(backoff);
        }
    }
    out.status = CellOutcome::Status::Failed;
    return out;
}

void
CampaignRunner::submit(CellSpec spec, std::function<std::string()> run)
{
    const std::uint64_t index = pending.size();
    auto task = [this, spec, index, run = std::move(run)]() -> CellOutcome {
        if (spec.cacheable) {
            // One lookup path: the resume store, then the shared
            // cache, then the simulation.
            const std::pair<const ResultCache *, CellOutcome::Source>
                stores[] = {{resumePtr.get(), CellOutcome::Source::Journal},
                            {cachePtr.get(), CellOutcome::Source::Cache}};
            for (const auto &[store, source] : stores) {
                if (!store)
                    continue;
                if (auto hit = store->load(spec.configHash, spec.seed,
                                           spec.label)) {
                    CellOutcome out;
                    out.status = CellOutcome::Status::Ok;
                    out.source = source;
                    out.index = index;
                    out.label = spec.label;
                    out.payload = std::move(*hit);
                    return out;
                }
            }
        }
        return runAttempts(spec, index, run);
    };

    PendingCell cell;
    cell.spec = std::move(spec);
    cell.fut = pool.submit(std::move(task));
    pending.push_back(std::move(cell));
}

std::vector<CellOutcome>
CampaignRunner::gather()
{
    TARTAN_ASSERT(!gathered, "CampaignRunner::gather called twice");
    gathered = true;

    std::vector<CellOutcome> outcomes;
    outcomes.reserve(pending.size());
    for (PendingCell &cell : pending) {
        CellOutcome out = cell.fut.get();

        if (out.status == CellOutcome::Status::Ok) {
            switch (out.source) {
            case CellOutcome::Source::Run:
                ++statsData.simulated;
                break;
            case CellOutcome::Source::Journal:
                ++statsData.journalHits;
                break;
            case CellOutcome::Source::Cache:
                ++statsData.cacheHits;
                break;
            }
            if (cell.spec.cacheable) {
                // Store every completed cell (fresh or cache-loaded)
                // the moment it is consumed: a kill between two cells
                // leaves the whole prefix in the resume store. Its own
                // hits are already there and are not rewritten.
                if (resumePtr &&
                    out.source != CellOutcome::Source::Journal)
                    resumePtr->store(cell.spec.configHash, cell.spec.seed,
                                     out.label, out.payload);
                if (cachePtr && out.source == CellOutcome::Source::Run)
                    cachePtr->store(cell.spec.configHash, cell.spec.seed,
                                    out.label, out.payload);
            }
        } else {
            ++statsData.failed;
            statsData.failures.push_back(
                CellFailure{out.index, out.label, out.errorClass,
                            out.errorDetail, out.attempts});
        }
        outcomes.push_back(std::move(out));
    }
    return outcomes;
}

} // namespace tartan::sim
