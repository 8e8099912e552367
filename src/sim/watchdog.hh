/**
 * @file
 * Per-cell deadlines for campaign runs.
 *
 * A campaign cell (one robot simulation) can hang — a modelled bug, a
 * pathological configuration, an injected `cell:hang` fault — and a
 * hung worker thread cannot be killed portably. Instead the cell
 * *cooperates*: the simulation's cycle sinks (Core::addCycles /
 * addMemStall) tick sim::heartbeat(), a near-free thread-local
 * counter. When a ScopedCellWatch is armed, the thread-local state
 * also holds the cell's label and wall-clock deadline, and every
 * 1024th tick reads steady_clock and throws CellTimeoutError once the
 * deadline has passed, unwinding the cell cleanly through the
 * campaign's retry/quarantine machinery. With no watch armed the
 * heartbeat is one thread-local pointer test — cheap enough to live
 * on the hot path.
 *
 * No thread watches the deadlines: each cell checks its own, so a
 * deadline is enforced at the first check after it passes.
 */

#ifndef TARTAN_SIM_WATCHDOG_HH
#define TARTAN_SIM_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tartan::sim {

/** Thrown (from a heartbeat) when a cell exceeds its deadline. */
class CellTimeoutError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by the `cell:crash` fault class (a simulated cell crash). */
class CellCrashError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thread-local heartbeat state: a tick counter plus the armed cell. */
struct HeartbeatState {
    std::uint64_t local = 0;  //!< ticks since the watch was armed
    /** Label of the armed cell (null = heartbeat off). */
    const std::string *cell = nullptr;
    /** Wall-clock point past which the next check throws. */
    std::chrono::steady_clock::time_point deadline;
};

/** The calling thread's heartbeat state (one per worker thread). */
extern thread_local HeartbeatState tlsHeartbeat;

/** Throw CellTimeoutError once the armed deadline has passed. */
void heartbeatSlow();

/**
 * One liveness tick. Near-free when no watch is armed (one
 * thread-local pointer test); with a watch armed, every 1024th tick
 * checks the deadline. Called from the core's cycle sinks so every
 * simulated cell beats constantly.
 */
inline void
heartbeat()
{
    HeartbeatState &hb = tlsHeartbeat;
    if (!hb.cell)
        return;
    if ((++hb.local & 0x3ffu) == 0)
        heartbeatSlow();
}

/**
 * Arm a deadline for the current thread for the current scope. A
 * non-positive @p timeout arms nothing (inert RAII). Watches do not
 * nest: arming inside an armed scope is a programming error (the
 * campaign arms exactly one per cell attempt).
 */
class ScopedCellWatch
{
  public:
    /** Arm: cell @p cell must finish within @p timeout from now. */
    ScopedCellWatch(std::chrono::milliseconds timeout, std::string cell);

    /** Disarm. */
    ~ScopedCellWatch();

    ScopedCellWatch(const ScopedCellWatch &) = delete;
    ScopedCellWatch &operator=(const ScopedCellWatch &) = delete;

    /** True when a deadline is actually armed (timeout was positive). */
    bool armed() const { return isArmed; }

  private:
    std::string label;  //!< the cell label tlsHeartbeat points at
    bool isArmed = false;
};

/**
 * Temporarily exempt the current thread from its armed deadline.
 *
 * A cell that blocks on work outside its own control — the capture
 * sources of the replay engine make sibling cells wait while the
 * first cell records the shared capture — would burn its whole
 * TARTAN_TIMEOUT budget waiting and then time out spuriously at its
 * first post-wait heartbeat. This RAII detaches the thread's watch for
 * the wait; on destruction it restores the watch with its deadline
 * pushed out by the suspended duration, so the cell's *own* work still
 * gets exactly its configured budget. Inert when no watch is armed.
 */
class ScopedWatchSuspend
{
  public:
    ScopedWatchSuspend();
    ~ScopedWatchSuspend();

    ScopedWatchSuspend(const ScopedWatchSuspend &) = delete;
    ScopedWatchSuspend &operator=(const ScopedWatchSuspend &) = delete;

  private:
    HeartbeatState saved;
    std::chrono::steady_clock::time_point start;
};

/**
 * Deterministic cooperative hang: spin until the armed deadline
 * expires (throwing CellTimeoutError), or — with no watch armed —
 * forever. The `cell:hang` fault class calls this to model a wedged
 * cell; under a TARTAN_TIMEOUT campaign the hang always times out,
 * under a bare run it reproduces a genuine hang for the kill-resume
 * path. Sleeps between probes, so a hung cell burns no CPU.
 */
[[noreturn]] void hangUntilWatchdog();

} // namespace tartan::sim

#endif // TARTAN_SIM_WATCHDOG_HH
