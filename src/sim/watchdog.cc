/**
 * @file
 * The slow half of the heartbeat: the deadline check, and the RAII
 * types that arm, suspend and disarm it.
 */

#include "sim/watchdog.hh"

#include <thread>
#include <utility>

namespace tartan::sim {

thread_local HeartbeatState tlsHeartbeat;

void
heartbeatSlow()
{
    const HeartbeatState &hb = tlsHeartbeat;
    if (std::chrono::steady_clock::now() >= hb.deadline)
        throw CellTimeoutError("cell '" + *hb.cell +
                               "' exceeded its deadline (TARTAN_TIMEOUT)");
}

ScopedCellWatch::ScopedCellWatch(std::chrono::milliseconds timeout,
                                 std::string cell)
    : label(std::move(cell)), isArmed(timeout.count() > 0)
{
    if (isArmed)
        tlsHeartbeat = {0, &label,
                        std::chrono::steady_clock::now() + timeout};
}

ScopedCellWatch::~ScopedCellWatch()
{
    if (isArmed)
        tlsHeartbeat = {};
}

ScopedWatchSuspend::ScopedWatchSuspend() : saved(tlsHeartbeat)
{
    if (!saved.cell)
        return;
    tlsHeartbeat = {};
    start = std::chrono::steady_clock::now();
}

ScopedWatchSuspend::~ScopedWatchSuspend()
{
    if (!saved.cell)
        return;
    saved.deadline += std::chrono::steady_clock::now() - start;
    tlsHeartbeat = saved;
}

void
hangUntilWatchdog()
{
    for (;;) {
        if (tlsHeartbeat.cell)
            heartbeatSlow();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

} // namespace tartan::sim
