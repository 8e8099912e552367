/**
 * @file
 * Uncore implementation: MESI snoop fabric, crossbar hop model, and
 * banked DRAM timing.
 */

#include "sim/uncore.hh"

#include "sim/cache.hh"
#include "sim/logging.hh"
#include "sim/memsystem.hh"

namespace tartan::sim {

Uncore::Uncore(const UncoreParams &params, Cache *shared_l3)
    : config(params), l3Cache(shared_l3)
{
    TARTAN_ASSERT(l3Cache, "Uncore requires a shared L3");
    TARTAN_ASSERT(config.dramBanks > 0 &&
                      config.dramRowBytes >= l3Cache->params().lineBytes,
                  "uncore geometry must be non-degenerate");
    banks.resize(config.dramBanks);
}

std::uint32_t
Uncore::attach(MemPath *path)
{
    paths.push_back(path);
    return static_cast<std::uint32_t>(paths.size() - 1);
}

std::uint32_t
Uncore::sliceOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(
        (line_addr / l3Cache->params().lineBytes) % config.l3Slices);
}

Cycles
Uncore::xbarCost(std::uint32_t core, Addr line_addr)
{
    const std::uint32_t port = core % config.l3Slices;
    const std::uint32_t slice = sliceOf(line_addr);
    const std::uint32_t s = config.l3Slices;
    const std::uint32_t fwd = (slice + s - port) % s;
    const std::uint32_t dist = fwd < s - fwd ? fwd : s - fwd;
    const Cycles hops = 1 + dist;
    ++xbarData.traversals;
    xbarData.hops += hops;
    return config.xbarHopLatency * hops;
}

Uncore::Bank &
Uncore::bankOf(Addr line_addr, std::uint64_t *row)
{
    const std::uint64_t row_number = line_addr / config.dramRowBytes;
    *row = row_number / config.dramBanks;
    return banks[row_number % config.dramBanks];
}

Cycles
Uncore::bankAccess(Addr line_addr, Cycles now, bool charge_wait)
{
    std::uint64_t row = 0;
    Bank &bank = bankOf(line_addr, &row);
    Cycles wait = bank.busyUntil > now ? bank.busyUntil - now : 0;
    const bool row_hit = bank.openRow == row;
    if (row_hit) {
        ++memctrlData.rowHits;
        // FR-FCFS approximation: a row hit is prioritised ahead of the
        // queued row-miss work and joins the open-row burst, so it
        // observes only part of the bank's backlog.
        wait /= 2;
    } else {
        ++memctrlData.rowMisses;
        bank.openRow = row;
    }
    if (charge_wait && wait > 0) {
        ++memctrlData.bankConflicts;
        memctrlData.conflictCycles += wait;
    }
    const Cycles service =
        row_hit ? config.dramRowHitLatency : config.dramRowMissLatency;
    bank.busyUntil = now + wait + service;
    return wait + service;
}

Cycles
Uncore::dramRead(Addr line_addr, Cycles now)
{
    ++memctrlData.reads;
    return bankAccess(line_addr, now, true);
}

void
Uncore::dramWrite(Addr line_addr, Cycles now)
{
    ++memctrlData.writes;
    bankAccess(line_addr, now, false);
}

Uncore::MissAction
Uncore::resolveMiss(std::uint32_t core, Addr line_addr, bool is_write,
                    Cycles now)
{
    MissAction act;
    bool any_remote = false;
    bool forwarded = false;
    for (std::uint32_t i = 0; i < paths.size(); ++i) {
        if (i == core)
            continue;
        MemPath *p = paths[i];
        for (Cache *c : {&p->l1(), &p->l2()}) {
            if (c->lineState(line_addr) == MesiState::Invalid)
                continue;
            any_remote = true;
            bool dirty = false;
            if (is_write) {
                c->snoopInvalidate(line_addr, &dirty);
                ++coherenceData.invalidations;
            } else {
                c->snoopDowngrade(line_addr, &dirty);
                ++coherenceData.downgrades;
            }
            if (dirty)
                forwarded = true;
        }
    }
    if (!any_remote)
        return act;
    ++coherenceData.snoops;
    act.cycles = config.coherenceLatency;
    if (forwarded) {
        ++coherenceData.dirtyForwards;
        // The surrendered Modified line lands in the shared L3 dirty,
        // so the requester's fetch (which runs right after this) hits
        // it there instead of going to DRAM.
        auto ev = l3Cache->fill(line_addr, false, true);
        if (ev.valid && ev.dirty)
            dramWrite(ev.lineAddr, now);
    }
    if (!is_write) {
        act.shared = true;
        ++coherenceData.sharedFills;
    }
    return act;
}

Cycles
Uncore::storeUpgrade(std::uint32_t core, Addr line_addr)
{
    ++coherenceData.upgrades;
    ++coherenceData.snoops;
    for (std::uint32_t i = 0; i < paths.size(); ++i) {
        if (i == core)
            continue;
        MemPath *p = paths[i];
        for (Cache *c : {&p->l1(), &p->l2()}) {
            if (c->lineState(line_addr) == MesiState::Invalid)
                continue;
            c->snoopInvalidate(line_addr, nullptr);
            ++coherenceData.invalidations;
        }
    }
    paths[core]->l1().clearShared(line_addr);
    paths[core]->l2().clearShared(line_addr);
    return config.coherenceLatency;
}

void
Uncore::checkInvariants() const
{
    TARTAN_ASSERT(memctrlData.rowHits + memctrlData.rowMisses ==
                      memctrlData.reads + memctrlData.writes,
                  "row hits + misses == reads + writes");
    TARTAN_ASSERT(memctrlData.bankConflicts > 0 ||
                      memctrlData.conflictCycles == 0,
                  "conflict cycles imply conflicts");
}

} // namespace tartan::sim
