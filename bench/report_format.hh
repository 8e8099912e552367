/**
 * @file
 * Metric-cell formatting shared by the RESULTS.md generator and its
 * tests. Kept separate from report_md.cc so the rendering of degenerate
 * metrics (JSON null from a non-finite value) is unit-testable.
 */

#ifndef TARTAN_BENCH_REPORT_FORMAT_HH
#define TARTAN_BENCH_REPORT_FORMAT_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/json.hh"

namespace tartan::bench {

/** Format a metric value the way the summary table wants it. */
inline std::string
formatNumber(double v)
{
    char buf[64];
    if (v == static_cast<std::int64_t>(v) && std::abs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

/**
 * Format a metric Value. Non-finite metrics (e.g. a geomean with no
 * positive inputs) are emitted as JSON null and must surface as "n/a",
 * not as a fake 0.
 */
inline std::string
formatMetric(const sim::json::Value &v)
{
    return v.isNumber() ? formatNumber(v.number) : "n/a";
}

/**
 * The quarantine note of a bench manifest: empty for a clean sweep,
 * else one line saying how many cells failed and that their rows are
 * placeholders, then one bullet per manifest.failures entry (cell,
 * error class, attempts).
 */
inline std::string
formatQuarantine(const sim::json::Value &manifest)
{
    const sim::json::Value *campaign = manifest.find("campaign");
    const sim::json::Value *failed =
        campaign ? campaign->find("failed") : nullptr;
    if (!failed || !failed->isNumber() || !(failed->number > 0))
        return "";
    std::string out = "Quarantined: " + formatNumber(failed->number) +
                      " cell(s) failed; their rows are placeholders.\n\n";
    if (const sim::json::Value *failures = manifest.find("failures")) {
        for (const sim::json::Value &f : failures->array) {
            const sim::json::Value *cell = f.find("cell");
            const sim::json::Value *cls = f.find("class");
            const sim::json::Value *attempts = f.find("attempts");
            out += "- `" + (cell ? cell->string : "?") + "`: " +
                   (cls ? cls->string : "?") + ", " +
                   formatNumber(attempts ? attempts->number : 0) +
                   " attempt(s)\n";
        }
        out += "\n";
    }
    return out;
}

} // namespace tartan::bench

#endif // TARTAN_BENCH_REPORT_FORMAT_HH
