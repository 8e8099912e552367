/**
 * @file
 * The host-speed reference kernel.
 */

#include "reference.hh"

#include <algorithm>

#include "spans.hh"

namespace tartan::perfbench {

namespace {

/** Accesses per run: about 25 ms on the reference host. */
constexpr int kAccesses = 320000;

} // namespace

ReferenceKernel::ReferenceKernel()
{
    // 32 KB 8-way, 256 KB 8-way and 8 MB 16-way of 32-byte lines.
    for (const auto &[sets, ways] :
         {std::pair{128u, 8u}, std::pair{1024u, 8u},
          std::pair{16384u, 16u}})
        levels.push_back(Level{sets, ways,
                               std::vector<std::uint64_t>(sets * ways),
                               std::vector<std::uint32_t>(sets * ways)});
    table.reserve(1 << 16);
}

bool
ReferenceKernel::probe(Level &level, std::uint64_t line)
{
    const std::size_t base = std::size_t(line % level.sets) * level.ways;
    std::uint64_t *tags = &level.tags[base];
    std::uint32_t *ages = &level.ages[base];
    unsigned victim = 0;
    for (unsigned w = 0; w < level.ways; ++w) {
        if (tags[w] == line) {
            ages[w] = ++clock;
            return true;
        }
        if (ages[w] < ages[victim])
            victim = w;
    }
    tags[victim] = line;
    ages[victim] = ++clock;
    return false;
}

double
ReferenceKernel::run()
{
    const std::int64_t t0 = nowNs();
    // Every run starts from the same state, so every run does the same
    // work.
    for (Level &level : levels) {
        std::fill(level.tags.begin(), level.tags.end(), ~std::uint64_t(0));
        std::fill(level.ages.begin(), level.ages.end(), 0);
    }
    table.clear();
    clock = 0;
    std::uint64_t x = 12345, addr = 0, hits = 0;
    for (int i = 0; i < kAccesses; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        // Three in four accesses stride forward; the rest jump anywhere
        // in a 64 MB footprint.
        addr = (x >> 62) != 0 ? addr + ((x >> 33) & 255)
                              : (x >> 20) & ((std::uint64_t(1) << 26) - 1);
        const std::uint64_t line = addr >> 5;
        bool hit = false;
        for (Level &level : levels)
            if ((hit = probe(level, line)))
                break;
        if (hit)
            ++hits;
        else
            table[line & 0xffff] += line;
    }
    sum += hits + table.size();
    return double(nowNs() - t0) * 1e-9;
}

} // namespace tartan::perfbench
