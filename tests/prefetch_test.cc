/**
 * @file
 * Dedicated Bingo prefetcher tests: trigger/footprint replay, retire on
 * eviction, FIFO eviction at capacity, triggerKey packing, the
 * historyFifo churn regression, and a diff against a std::map
 * reference model.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/bingo.hh"
#include "sim/types.hh"

using namespace tartan::sim;

namespace {

constexpr std::uint32_t kLine = 64;
constexpr std::uint32_t kPage = 2048;
constexpr std::uint32_t kLinesPerPage = kPage / kLine;

Addr
lineAddr(std::uint64_t page, std::uint32_t line)
{
    return page * kPage + line * kLine;
}

/** Touch the trigger line plus @p extras on @p page, then evict it. */
void
learnFootprint(BingoPrefetcher &bingo, std::uint64_t page, PcId pc,
               std::uint32_t trigger,
               const std::vector<std::uint32_t> &extras)
{
    std::vector<Addr> out;
    bingo.observe({lineAddr(page, trigger), pc, true}, out);
    for (std::uint32_t line : extras)
        bingo.observe({lineAddr(page, line), pc, true}, out);
    bingo.onEviction(lineAddr(page, 0));
}

/**
 * Minimal Bingo reference: std::map tables and a std::deque holding the
 * history's insertion order, written straight from the algorithm.
 */
struct ReferenceBingo {
    explicit ReferenceBingo(std::size_t capacity) : capacity(capacity) {}

    void
    observe(const PrefetchObservation &obs, std::vector<Addr> &out)
    {
        const std::uint64_t page = obs.addr / kPage;
        const std::uint32_t offset = (obs.addr % kPage) / kLine;
        if (auto it = active.find(page); it != active.end()) {
            it->second.second |= 1ull << offset;
            return;
        }
        const std::uint64_t key = (std::uint64_t(obs.pc) << 6) | offset;
        active[page] = {key, 1ull << offset};
        if (auto h = history.find(key); h != history.end())
            for (std::uint32_t line = 0; line < kLinesPerPage; ++line)
                if (line != offset && (h->second >> line & 1))
                    out.push_back(lineAddr(page, line));
    }

    void
    retire(std::uint64_t page)
    {
        auto it = active.find(page);
        if (it == active.end())
            return;
        const auto [key, footprint] = it->second;
        active.erase(it);
        if (!history.count(key)) {
            if (history.size() >= capacity) {
                history.erase(fifo.front());
                fifo.pop_front();
            }
            fifo.push_back(key);
        }
        history[key] = footprint;
    }

    std::size_t capacity;
    /** page -> (trigger key, footprint) */
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> active;
    std::map<std::uint64_t, std::uint64_t> history;
    std::deque<std::uint64_t> fifo;
};

/** Replay targets from a fresh trigger access on @p page. */
std::vector<Addr>
replay(BingoPrefetcher &bingo, std::uint64_t page, PcId pc,
       std::uint32_t trigger)
{
    std::vector<Addr> out;
    bingo.observe({lineAddr(page, trigger), pc, true}, out);
    return out;
}

} // namespace

TEST(Prefetch, TriggerReplaysLearnedFootprintInLineOrder)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);

    // Learn lines {2, 7, 5, 31} on page 3; the trigger line itself
    // must not be replayed, and targets come out in ascending line
    // order regardless of observation order.
    learnFootprint(bingo, 3, 42, 2, {7, 5, 31});
    const auto out = replay(bingo, 9, 42, 2);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], lineAddr(9, 5));
    EXPECT_EQ(out[1], lineAddr(9, 7));
    EXPECT_EQ(out[2], lineAddr(9, 31));
}

TEST(Prefetch, NoReplayBeforeRetire)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);

    std::vector<Addr> out;
    bingo.observe({lineAddr(0, 2), 42, true}, out);
    bingo.observe({lineAddr(0, 6), 42, true}, out);
    EXPECT_TRUE(out.empty());

    // The footprint is still active — a second page with the same
    // trigger has nothing to replay until the first page retires.
    bingo.observe({lineAddr(1, 2), 42, true}, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(bingo.historySize(), 0u);

    bingo.onEviction(lineAddr(0, 0));
    EXPECT_EQ(bingo.historySize(), 1u);
    EXPECT_FALSE(replay(bingo, 5, 42, 2).empty());
}

TEST(Prefetch, EvictionOfUntrackedPageIsIgnored)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);
    bingo.onEviction(lineAddr(17, 3));
    EXPECT_EQ(bingo.historySize(), 0u);
}

TEST(Prefetch, TriggerKeyPacksPcAndOffsetWithoutAliasing)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);

    // key = (pc << 6) | offset. With a naive pc+offset or pc|offset
    // packing, (pc=1, off=1) and (pc=2, off=0) or (pc=1, off=0) and
    // (pc=1, off=1) could alias; each (pc, offset) pair must learn
    // its own footprint.
    learnFootprint(bingo, 0, 1, 1, {4});
    learnFootprint(bingo, 1, 2, 0, {9});
    learnFootprint(bingo, 2, 1, 0, {13});

    const auto a = replay(bingo, 10, 1, 1);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0], lineAddr(10, 4));

    const auto b = replay(bingo, 11, 2, 0);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], lineAddr(11, 9));

    const auto c = replay(bingo, 12, 1, 0);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0], lineAddr(12, 13));
}

TEST(Prefetch, HistoryEvictsOldestTriggerAtCapacity)
{
    BingoPrefetcher bingo(kLine, kPage, 2);

    learnFootprint(bingo, 0, 100, 0, {1});
    learnFootprint(bingo, 1, 200, 0, {2});
    EXPECT_EQ(bingo.historySize(), 2u);

    // Re-learning an existing trigger overwrites in place — no FIFO
    // slot is consumed and nothing is evicted.
    learnFootprint(bingo, 2, 200, 0, {3});
    EXPECT_EQ(bingo.historySize(), 2u);
    EXPECT_EQ(bingo.fifoLive(), 2u);

    // A third distinct trigger evicts the oldest (pc 100).
    learnFootprint(bingo, 3, 300, 0, {4});
    EXPECT_EQ(bingo.historySize(), 2u);
    EXPECT_TRUE(replay(bingo, 10, 100, 0).empty());
    const auto b = replay(bingo, 11, 200, 0);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], lineAddr(11, 3));
    EXPECT_FALSE(replay(bingo, 12, 300, 0).empty());
}

TEST(Prefetch, FifoBackingStaysBoundedUnderChurn)
{
    // Regression for the historyFifo leak: fifoHead used to advance on
    // every capacity eviction while the vector kept its retired prefix
    // forever, so backing slots grew linearly with history churn. Drive
    // far more distinct triggers than the capacity holds and check the
    // backing storage stays bounded (the ring is sized to the capacity
    // once) while the live window tracks the table exactly.
    constexpr std::uint32_t kCapacity = 64;
    BingoPrefetcher bingo(kLine, kPage, kCapacity);

    constexpr std::uint64_t kChurn = 20000;
    for (std::uint64_t i = 0; i < kChurn; ++i)
        learnFootprint(bingo, i, static_cast<PcId>(1000 + i), 0, {1});

    EXPECT_EQ(bingo.historySize(), kCapacity);
    EXPECT_EQ(bingo.fifoLive(), kCapacity);
    EXPECT_EQ(bingo.fifoBackingSlots(), std::size_t(kCapacity))
        << "fifo backing grew with churn (leak regressed)";

    // The survivors are exactly the most recent kCapacity triggers.
    EXPECT_TRUE(replay(bingo, kChurn + 1, 1000, 0).empty());
    EXPECT_FALSE(
        replay(bingo, kChurn + 2,
               static_cast<PcId>(1000 + kChurn - 1), 0)
            .empty());
}

TEST(Prefetch, BingoMatchesMapReferenceOnRandomStream)
{
    // The flat-table Bingo and the std::map reference, fed the identical
    // random stream of observations and evictions, must emit identical
    // prediction streams and agree on the history occupancy.
    BingoPrefetcher bingo(kLine, kPage, 32);
    ReferenceBingo ref(32);

    std::mt19937_64 rng(12345);
    std::vector<Addr> got, want;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t page = rng() % 64;
        if (rng() % 8 == 0) {
            bingo.onEviction(lineAddr(page, 0));
            ref.retire(page);
        } else {
            const PrefetchObservation obs{
                lineAddr(page, static_cast<std::uint32_t>(
                                   rng() % kLinesPerPage)),
                static_cast<PcId>(rng() % 16), true};
            got.clear();
            want.clear();
            bingo.observe(obs, got);
            ref.observe(obs, want);
            ASSERT_EQ(got, want) << "diverged at step " << i;
        }
        ASSERT_EQ(bingo.historySize(), ref.history.size());
        ASSERT_EQ(bingo.fifoLive(), ref.fifo.size());
    }
}
