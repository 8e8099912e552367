/**
 * @file
 * Per-cell deadline watchdog for campaign runs.
 *
 * A campaign cell (one robot simulation) can hang — a modelled bug, a
 * pathological configuration, an injected `cell:hang` fault — and a
 * hung worker thread cannot be killed portably. Instead the cell
 * *cooperates*: the simulation's cycle sinks (Core::addCycles /
 * addMemStall) tick sim::heartbeat(), a near-free thread-local
 * counter. When a ScopedCellWatch is armed, every 1024th tick
 * publishes the count and checks an `expired` flag that a single
 * background watchdog thread raises once the cell's wall-clock
 * deadline passes; the next heartbeat then throws CellTimeoutError,
 * unwinding the cell cleanly through the campaign's retry/quarantine
 * machinery. With no watch armed the heartbeat is one thread-local
 * pointer test — cheap enough to live on the hot path.
 *
 * The watchdog thread is started lazily on the first armed watch and
 * scans registered watches every ~20 ms; deadlines are therefore
 * enforced with ~tens-of-milliseconds granularity, which is fine for
 * the seconds-scale TARTAN_TIMEOUT budgets campaigns use.
 */

#ifndef TARTAN_SIM_WATCHDOG_HH
#define TARTAN_SIM_WATCHDOG_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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

/** One armed deadline: shared between a cell thread and the watchdog. */
struct CellWatch {
    /** Wall-clock point after which the watchdog raises `expired`. */
    std::chrono::steady_clock::time_point deadline;
    /** Cell label, for the timeout diagnostic. */
    std::string cell;
    /** Heartbeat count, published by the cell for liveness telemetry. */
    std::atomic<std::uint64_t> beats{0};
    /** Raised by the watchdog thread; the next heartbeat throws. */
    std::atomic<bool> expired{false};
};

/** Thread-local heartbeat state: a local counter plus the armed watch. */
struct HeartbeatState {
    std::uint64_t local = 0;   //!< ticks since the watch was armed
    CellWatch *watch = nullptr; //!< armed watch (null = heartbeat off)
};

/** The calling thread's heartbeat state (one per worker thread). */
extern thread_local HeartbeatState tlsHeartbeat;

/** Publish the tick count and throw CellTimeoutError once expired. */
void heartbeatSlow();

/**
 * One liveness tick. Near-free when no watch is armed (one
 * thread-local pointer test); with a watch armed, every 1024th tick
 * publishes the count and checks the deadline flag. Called from the
 * core's cycle sinks so every simulated cell beats constantly.
 */
inline void
heartbeat()
{
    HeartbeatState &hb = tlsHeartbeat;
    if (!hb.watch)
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

    /** Disarm and unregister from the watchdog. */
    ~ScopedCellWatch();

    ScopedCellWatch(const ScopedCellWatch &) = delete;
    ScopedCellWatch &operator=(const ScopedCellWatch &) = delete;

    /** True when a deadline is actually armed (timeout was positive). */
    bool armed() const { return watch != nullptr; }

  private:
    std::shared_ptr<CellWatch> watch;
};

/**
 * Temporarily exempt the current thread from its armed deadline.
 *
 * A cell that blocks on work outside its own control — the capture
 * sources of the replay engine serialise sibling cells behind one
 * mutex while the first cell records the shared capture — would burn
 * its whole TARTAN_TIMEOUT budget waiting and then time out spuriously
 * at its first post-wait heartbeat. This RAII detaches the thread's
 * watch for the wait; on destruction it re-arms the watch and extends
 * its deadline by the suspended duration (clearing an `expired` flag
 * the scanner raised in the meantime), so the cell's *own* work still
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
    CellWatch *saved = nullptr;
    std::uint64_t savedLocal = 0;
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
