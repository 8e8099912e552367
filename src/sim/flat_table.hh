/**
 * @file
 * Flat open-addressed hash table for the per-access hot paths.
 *
 * Backs the miss-path metadata structures (Bingo's active/history
 * tables, the AddrMap first-touch grain table). Entries live in one
 * contiguous power-of-two array probed linearly, so the common hit
 * resolves within the cache line the hash lands on and inserts never
 * allocate until the table grows (a node-based std::unordered_map costs
 * an allocation per insert and a dependent pointer chase per probe).
 *
 * Keys are 64-bit with ~0 reserved as the empty sentinel (asserted on
 * insert; every simulator key — trigger keys, page numbers, grain
 * numbers — is far below it). Deletion uses backward-shift compaction
 * instead of tombstones, so probe chains never accumulate dead slots and
 * lookup cost stays bounded by cluster length at any churn rate.
 */

#ifndef TARTAN_SIM_FLAT_TABLE_HH
#define TARTAN_SIM_FLAT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace tartan::sim {

/**
 * Open-addressed hash map from 64-bit keys to values of type V.
 *
 * Power-of-two capacity, Fibonacci multiplicative hashing, linear
 * probing, tombstone-free (backward-shift) deletion, growth at ~3/4
 * load. Iteration order is unspecified; callers needing a deterministic
 * order (e.g. Bingo's history FIFO) must keep it externally.
 */
template <typename V>
class FlatTable
{
  public:
    /** Reserved key marking an empty slot. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    FlatTable() { rehash(kMinCapacity); }

    /** Number of live entries. */
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Pointer to the value under @p key, or null when absent. */
    V *
    find(std::uint64_t key)
    {
        std::size_t slot = hash(key);
        while (true) {
            const std::uint64_t k = keys[slot];
            if (k == key)
                return &values[slot];
            if (k == kEmpty)
                return nullptr;
            slot = (slot + 1) & mask;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatTable *>(this)->find(key);
    }

    /**
     * Value under @p key, default-constructing it when absent (the
     * operator[] idiom). Grows the table when insertion would push the
     * load factor past ~3/4.
     */
    V &
    getOrInsert(std::uint64_t key)
    {
        TARTAN_DCHECK(key != kEmpty, "FlatTable key collides with sentinel");
        std::size_t slot = hash(key);
        while (true) {
            const std::uint64_t k = keys[slot];
            if (k == key)
                return values[slot];
            if (k == kEmpty)
                break;
            slot = (slot + 1) & mask;
        }
        if (count + 1 > (capacity() / 4) * 3) {
            rehash(capacity() * 2);
            slot = hash(key);
            while (keys[slot] != kEmpty)
                slot = (slot + 1) & mask;
        }
        keys[slot] = key;
        values[slot] = V{};
        ++count;
        return values[slot];
    }

    /**
     * Remove @p key if present; returns whether it was. Backward-shift
     * deletion: every displaced successor in the probe cluster is moved
     * one step back, so no tombstone is left behind.
     */
    bool
    erase(std::uint64_t key)
    {
        std::size_t slot = hash(key);
        while (true) {
            const std::uint64_t k = keys[slot];
            if (k == kEmpty)
                return false;
            if (k == key)
                break;
            slot = (slot + 1) & mask;
        }
        std::size_t hole = slot;
        std::size_t probe = (hole + 1) & mask;
        while (keys[probe] != kEmpty) {
            // An entry may back-fill the hole only if its home slot is
            // not inside (hole, probe] — otherwise the shift would break
            // its own probe chain.
            const std::size_t home = hash(keys[probe]);
            const bool movable = ((probe - home) & mask) >=
                                 ((probe - hole) & mask);
            if (movable) {
                keys[hole] = keys[probe];
                values[hole] = values[probe];
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        keys[hole] = kEmpty;
        --count;
        return true;
    }

  private:
    static constexpr std::size_t kMinCapacity = 64;

    std::size_t capacity() const { return keys.size(); }

    std::size_t
    hash(std::uint64_t key) const
    {
        // Fibonacci multiplicative hash: the golden-ratio multiplier
        // spreads consecutive keys (page numbers, grain numbers) across
        // the table instead of clustering them in one probe run.
        return static_cast<std::size_t>(
                   (key * 0x9E3779B97F4A7C15ull) >> shift) &
               mask;
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<std::uint64_t> old_keys = std::move(keys);
        std::vector<V> old_values = std::move(values);
        keys.assign(new_capacity, kEmpty);
        values.assign(new_capacity, V{});
        mask = new_capacity - 1;
        shift = 64;
        for (std::size_t c = new_capacity; c > 1; c >>= 1)
            --shift;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmpty)
                continue;
            std::size_t slot = hash(old_keys[i]);
            while (keys[slot] != kEmpty)
                slot = (slot + 1) & mask;
            keys[slot] = old_keys[i];
            values[slot] = old_values[i];
        }
    }

    std::vector<std::uint64_t> keys;
    std::vector<V> values;
    std::size_t count = 0;
    std::size_t mask = 0;
    unsigned shift = 64;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_FLAT_TABLE_HH
