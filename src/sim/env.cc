/**
 * @file
 * RunEnv implementation: one-shot parsing of the TARTAN_* variables.
 */

#include "sim/env.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace tartan::sim {

RunEnv
RunEnv::parse()
{
    RunEnv env;
    if (const char *dir = std::getenv("TARTAN_TRACE"))
        env.traceDir = dir;
    if (const char *epoch = std::getenv("TARTAN_TRACE_EPOCH")) {
        const long long v = std::atoll(epoch);
        if (v > 0)
            env.traceEpochCycles = Cycles(v);
        else
            warn("env: ignoring invalid TARTAN_TRACE_EPOCH '%s'", epoch);
    }
    if (const char *dir = std::getenv("TARTAN_BENCH_DIR"))
        env.benchDir = dir;
    if (const char *spec = std::getenv("TARTAN_FAULTS"))
        env.faultSpec = spec;
    if (const char *jobs = std::getenv("TARTAN_JOBS")) {
        const long long v = std::atoll(jobs);
        if (v >= 1)
            env.jobs = unsigned(v);
        else if (*jobs)
            warn("env: ignoring invalid TARTAN_JOBS '%s' (want >= 1)",
                 jobs);
    }
    if (const char *timeout = std::getenv("TARTAN_TIMEOUT")) {
        const double v = std::atof(timeout);
        if (v >= 0)
            env.timeoutSec = v;
        else
            warn("env: ignoring invalid TARTAN_TIMEOUT '%s' (want >= 0)",
                 timeout);
    }
    if (const char *retries = std::getenv("TARTAN_RETRIES")) {
        const long long v = std::atoll(retries);
        if (v >= 0 && v <= 16)
            env.retries = unsigned(v);
        else
            warn("env: ignoring invalid TARTAN_RETRIES '%s' "
                 "(want 0..16)",
                 retries);
    }
    if (const char *backoff = std::getenv("TARTAN_BACKOFF_MS")) {
        const long long v = std::atoll(backoff);
        if (v >= 0)
            env.backoffMs = unsigned(v);
        else
            warn("env: ignoring invalid TARTAN_BACKOFF_MS '%s' "
                 "(want >= 0)",
                 backoff);
    }
    if (const char *resume = std::getenv("TARTAN_RESUME")) {
        const std::string v = resume;
        env.resume = v == "1" || v == "on" || v == "true";
    }
    if (const char *dir = std::getenv("TARTAN_CACHE_DIR"))
        env.cacheDir = dir;
    if (const char *dir = std::getenv("TARTAN_CAPTURE_DIR"))
        env.captureDir = dir;
    if (const char *cores = std::getenv("TARTAN_CORES")) {
        const long long v = std::atoll(cores);
        if (v >= 1 && v <= 64)
            env.cores = unsigned(v);
        else
            warn("env: ignoring invalid TARTAN_CORES '%s' (want 1..64)",
                 cores);
    }
    if (const char *hop = std::getenv("TARTAN_XBAR_HOP")) {
        const long long v = std::atoll(hop);
        if (v >= 1)
            env.xbarHop = Cycles(v);
        else
            warn("env: ignoring invalid TARTAN_XBAR_HOP '%s' "
                 "(want >= 1)",
                 hop);
    }
    if (const char *banks = std::getenv("TARTAN_DRAM_BANKS")) {
        const long long v = std::atoll(banks);
        if (v >= 1 && v <= 256)
            env.dramBanks = unsigned(v);
        else
            warn("env: ignoring invalid TARTAN_DRAM_BANKS '%s' "
                 "(want 1..256)",
                 banks);
    }
    if (const char *lat = std::getenv("TARTAN_COHERENCE_LAT")) {
        const long long v = std::atoll(lat);
        if (v >= 1)
            env.coherenceLat = Cycles(v);
        else
            warn("env: ignoring invalid TARTAN_COHERENCE_LAT '%s' "
                 "(want >= 1)",
                 lat);
    }
    return env;
}

const RunEnv &
RunEnv::get()
{
    static const RunEnv env = parse();
    return env;
}

} // namespace tartan::sim
