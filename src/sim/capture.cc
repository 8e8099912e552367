/**
 * @file
 * Capture file I/O: header framing, CRC validation, atomic save.
 */

#include "sim/capture.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <type_traits>
#include <vector>

#include "sim/checksum.hh"
#include "sim/cpistack.hh"
#include "sim/json.hh"

namespace tartan::sim {

namespace {

/** Fixed 64-byte on-disk header. */
struct CaptureHeader {
    char magic[8];            //!< "TARTANC\0"
    std::uint32_t version;    //!< kCaptureFormatVersion
    std::uint32_t bodyCrc;    //!< CRC-32 of records + aux bytes
    std::uint64_t configHash; //!< stream key of the capture
    std::uint64_t seed;       //!< workload seed
    std::uint64_t recordCount;
    std::uint64_t auxBytes;
    std::uint64_t l1Bytes;    //!< L1 section bytes after aux (0: none)
    std::uint64_t reserved;
};

static_assert(sizeof(CaptureHeader) == 64, "capture header is 64 bytes");

/**
 * Fixed head of the L1 section. It is followed by the hit words, the
 * dirty-fill words and the victim line addresses, all u64.
 */
struct L1SectionHead {
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t lineBytes;
    std::uint32_t trackUdm;
    std::uint64_t lookups;
    std::uint64_t fills;
    std::uint64_t victims;
    CacheStats stats;
    std::uint64_t dirtyLines;
};

static_assert(sizeof(L1SectionHead) == 120 &&
                  std::is_trivially_copyable_v<L1SectionHead>,
              "the L1 section head is 120 bytes of POD");

constexpr char kMagic[8] = {'T', 'A', 'R', 'T', 'A', 'N', 'C', '\0'};

void
setError(std::string *err, const std::string &message)
{
    if (err)
        *err = message;
}

/** The bytes of @p n elements at @p p. */
template <typename T>
std::string_view
bytesOf(const T *p, std::size_t n)
{
    return {reinterpret_cast<const char *>(p), n * sizeof(T)};
}

/** The L1 section's fixed head; meaningful when it is recorded. */
L1SectionHead
l1Head(const L1Outcomes &l1)
{
    return L1SectionHead{l1.sizeBytes,       l1.assoc,   l1.lineBytes,
                         l1.trackUdm,        l1.lookups, l1.fills,
                         l1.victims.size(), l1.stats,   l1.dirtyLines};
}

/**
 * The on-disk L1 section in write order: its head, the hit words, the
 * dirty-fill words and the victims. Empty when no section was recorded.
 */
std::vector<std::string_view>
l1Pieces(const L1Outcomes &l1, const L1SectionHead &head)
{
    if (!l1.recorded())
        return {};
    return {bytesOf(&head, 1), bytesOf(l1.hits.data(), l1.hits.size()),
            bytesOf(l1.dirtyFills.data(), l1.dirtyFills.size()),
            bytesOf(l1.victims.data(), l1.victims.size())};
}

/**
 * CRC-32 of the body: the record bytes chained with the aux bytes and
 * then the L1 section's.
 */
std::uint32_t
bodyCrc(const CaptureTrace &trace)
{
    std::uint32_t crc = crc32(
        bytesOf(trace.aux.data(), trace.aux.size()),
        crc32(bytesOf(trace.records.data(), trace.records.size())));
    const L1SectionHead head = l1Head(trace.l1);
    for (const std::string_view piece : l1Pieces(trace.l1, head))
        crc = crc32(piece, crc);
    return crc;
}

/**
 * Read an L1 section of @p bytes bytes from @p f into @p out. False
 * when the head's counts do not frame exactly @p bytes bytes; counts
 * are checked before anything is allocated.
 */
bool
readL1Section(std::FILE *f, std::uint64_t bytes, L1Outcomes &out)
{
    if (bytes == 0)
        return true;
    L1SectionHead head{};
    if (bytes < sizeof(head) || (bytes - sizeof(head)) % 8 != 0 ||
        std::fread(&head, sizeof(head), 1, f) != 1)
        return false;
    const std::uint64_t words = (bytes - sizeof(head)) / 8;
    const std::uint64_t hit_words = L1Outcomes::wordsFor(head.lookups);
    const std::uint64_t dirty_words = L1Outcomes::wordsFor(head.fills);
    // A written section is a recorded one (save() writes none else).
    if (head.sizeBytes == 0 || hit_words > words ||
        dirty_words > words - hit_words ||
        head.victims != words - hit_words - dirty_words)
        return false;
    out.sizeBytes = head.sizeBytes;
    out.assoc = head.assoc;
    out.lineBytes = head.lineBytes;
    out.trackUdm = head.trackUdm;
    out.lookups = head.lookups;
    out.fills = head.fills;
    out.stats = head.stats;
    out.dirtyLines = head.dirtyLines;
    out.hits.resize(hit_words);
    out.dirtyFills.resize(dirty_words);
    out.victims.resize(head.victims);
    const auto read = [&](auto &vec) {
        return vec.empty() ||
               std::fread(vec.data(), 8, vec.size(), f) == vec.size();
    };
    return read(out.hits) && read(out.dirtyFills) && read(out.victims);
}

/** Set bits among the first @p bits bits of @p words. */
std::uint64_t
popcountPrefix(const MmapVec<std::uint64_t> &words, std::uint64_t bits)
{
    std::uint64_t n = 0;
    for (std::uint64_t w = 0; w < L1Outcomes::wordsFor(bits); ++w) {
        const std::uint64_t left = bits - 64 * w;
        const std::uint64_t mask =
            left >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << left) - 1;
        n += std::uint64_t(std::popcount(words[w] & mask));
    }
    return n;
}

/** Why @p l1 is inconsistent, or empty when it is consistent. */
std::string
l1SectionError(const L1Outcomes &l1)
{
    if (!l1.recorded())
        return l1.lookups || l1.fills || !l1.hits.empty() ||
                       !l1.dirtyFills.empty() || !l1.victims.empty()
                   ? "L1 outcomes without an L1 configuration"
                   : "";
    if (!std::has_single_bit(l1.lineBytes))
        return "L1 line size " + std::to_string(l1.lineBytes) +
               " is not a power of two";
    if (l1.assoc == 0 || l1.trackUdm > 1)
        return "malformed L1 configuration";
    if (l1.hits.size() != L1Outcomes::wordsFor(l1.lookups) ||
        l1.dirtyFills.size() != L1Outcomes::wordsFor(l1.fills))
        return "L1 bit vectors do not match their counts";
    if (l1.victims.size() != popcountPrefix(l1.dirtyFills, l1.fills))
        return "L1 victim count differs from the dirty fills";
    // Every demand lookup that missed counted one miss, and every
    // dirty victim one dirty eviction (nothing snoops a capture's L1).
    if (l1.stats.misses != l1.lookups - popcountPrefix(l1.hits, l1.lookups) ||
        l1.stats.dirtyEvictions != l1.victims.size())
        return "L1 counters disagree with the recorded outcomes";
    return "";
}

} // namespace

bool
CaptureTrace::validate(std::string *err) const
{
    const auto reject = [&](std::size_t i, const std::string &what) {
        setError(err, "record " + std::to_string(i) + ": " + what);
        return false;
    };
    for (std::size_t i = 0; i < records.size(); ++i) {
        const CapRecord &r = records[i];
        if (r.op == 0 || r.op >= std::uint8_t(CapOp::NumOps))
            return reject(i, "unknown op tag " + std::to_string(r.op));
        // Enum arguments replay casts and indexes by (a CpiCat indexes
        // the CPI stacks): out of range, they were never recorded.
        const CapOp op = CapOp(r.op);
        if ((op == CapOp::Stall || op == CapOp::DeviceLoadLanes ||
             op == CapOp::VecLoadLanes) &&
            r.a8 >= kNumCpiCats)
            return reject(i, "CPI category " + std::to_string(r.a8) +
                                 " out of range");
        if (op == CapOp::Load && r.a8 > std::uint8_t(MemDep::Dependent))
            return reject(i, "memory dependence " + std::to_string(r.a8) +
                                 " out of range");
        if (op == CapOp::VecLoadContiguous &&
            (r.a8 > kSpanPerGrain ||
             r.b > ~std::uint64_t(0) - std::max<std::uint32_t>(r.a32, 1)))
            return reject(i, "malformed contiguous span");
        // Bytes the record references at aux offset d. The bound is
        // checked as len <= aux.size() - d, never as d + len <=
        // aux.size(): a crafted d near 2^64 would wrap the sum.
        std::uint64_t len = 0;
        bool refs_aux = true;
        switch (op) {
          case CapOp::RegisterKernel:
          case CapOp::Metric:
          case CapOp::RobotName:
            len = r.a32;
            break;
          case CapOp::DeviceLoadLanes:
          case CapOp::VecLoadLanes:
            len = 16 * std::uint64_t(r.a32);  // host, then sim lanes
            break;
          case CapOp::NpuInfer:
          case CapOp::Discount:
            len = 8 * std::uint64_t(r.a32);
            break;
          case CapOp::VecLoadContiguous:
            refs_aux = r.a8 == kSpanPerGrain;
            len = 8 * AddrMap::grainsSpanned(r.b, r.a32);
            break;
          default:
            refs_aux = false;
            break;
        }
        if (refs_aux && (r.d > aux.size() || len > aux.size() - r.d))
            return reject(i, "aux reference beyond the aux stream");
        // Replay keeps a 1/divisor share of the discounted cycles, as
        // the live run did; a zero divisor was never recorded by one.
        if (op == CapOp::Discount && r.b == 0)
            return reject(i, "wall discount by zero");
    }
    if (const std::string why = l1SectionError(l1); !why.empty()) {
        setError(err, why);
        return false;
    }
    return true;
}

bool
CaptureTrace::save(const std::string &path, std::string *err) const
{
    CaptureHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kCaptureFormatVersion;
    hdr.bodyCrc = bodyCrc(*this);
    hdr.configHash = configHash;
    hdr.seed = seed;
    hdr.recordCount = records.size();
    hdr.auxBytes = aux.size();
    const L1SectionHead l1_head = l1Head(l1);
    const std::vector<std::string_view> l1_pieces = l1Pieces(l1, l1_head);
    for (const std::string_view piece : l1_pieces)
        hdr.l1Bytes += piece.size();

    // The durable writer renames an fsynced, process-unique temp
    // sibling into place: the content-addressed name never points at a
    // torn file, and processes sharing a capture directory never write
    // into each other's temporaries.
    const bool ok = json::writeFileDurable(
        path,
        [&](std::ostream &os) {
            os.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
            if (!records.empty())
                os.write(reinterpret_cast<const char *>(records.data()),
                         std::streamsize(records.size() *
                                         sizeof(CapRecord)));
            if (!aux.empty())
                os.write(reinterpret_cast<const char *>(aux.data()),
                         std::streamsize(aux.size()));
            for (const std::string_view piece : l1_pieces)
                os.write(piece.data(), std::streamsize(piece.size()));
        },
        "capture");
    if (!ok)
        setError(err, "cannot write '" + path + "'");
    return ok;
}

bool
CaptureTrace::load(const std::string &path, CaptureTrace &out,
                   std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;  // absent file: not corruption, err stays empty

    CaptureHeader hdr{};
    if (std::fread(&hdr, sizeof(hdr), 1, f) != 1) {
        setError(err, "truncated header");
        std::fclose(f);
        return false;
    }
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) {
        setError(err, "bad magic");
        std::fclose(f);
        return false;
    }
    if (hdr.version != kCaptureFormatVersion) {
        setError(err, "foreign format version " +
                          std::to_string(hdr.version) + " (want " +
                          std::to_string(kCaptureFormatVersion) + ")");
        std::fclose(f);
        return false;
    }

    // Size-check against the header *before* allocating: a corrupt
    // count must produce a clean rejection, not a giant allocation.
    if (std::fseek(f, 0, SEEK_END) != 0) {
        setError(err, "cannot seek");
        std::fclose(f);
        return false;
    }
    const long file_size = std::ftell(f);
    const std::uint64_t body =
        file_size >= long(sizeof(CaptureHeader))
            ? std::uint64_t(file_size) - sizeof(CaptureHeader)
            : 0;
    const std::string claim =
        "truncated or oversized body (header claims " +
        std::to_string(hdr.recordCount) + " records + " +
        std::to_string(hdr.auxBytes) + " aux bytes + " +
        std::to_string(hdr.l1Bytes) + " L1 section bytes)";
    const std::uint64_t record_bytes =
        hdr.recordCount <= body / sizeof(CapRecord)
            ? hdr.recordCount * sizeof(CapRecord)
            : ~std::uint64_t(0);
    if (file_size < long(sizeof(CaptureHeader)) || record_bytes > body ||
        hdr.auxBytes > body - record_bytes ||
        hdr.l1Bytes != body - record_bytes - hdr.auxBytes) {
        setError(err, claim);
        std::fclose(f);
        return false;
    }
    std::fseek(f, sizeof(CaptureHeader), SEEK_SET);

    CaptureTrace trace;
    trace.configHash = hdr.configHash;
    trace.seed = hdr.seed;
    trace.records.resize(hdr.recordCount);
    trace.aux.resize(hdr.auxBytes);
    bool ok = true;
    if (hdr.recordCount)
        ok = std::fread(trace.records.data(), sizeof(CapRecord),
                        hdr.recordCount, f) == hdr.recordCount;
    if (ok && hdr.auxBytes)
        ok = std::fread(trace.aux.data(), 1, hdr.auxBytes, f) ==
             hdr.auxBytes;
    if (ok)
        ok = readL1Section(f, hdr.l1Bytes, trace.l1);
    // A capture must be exactly header + records + aux + L1 section:
    // trailing bytes mean the header lies about the body it frames.
    if (ok && std::fgetc(f) != EOF)
        ok = false;
    std::fclose(f);
    if (!ok) {
        setError(err, claim);
        return false;
    }
    if (bodyCrc(trace) != hdr.bodyCrc) {
        setError(err, "body CRC mismatch (bit rot or torn write)");
        return false;
    }
    if (!trace.validate(err))
        return false;
    out = std::move(trace);
    return true;
}

CaptureStats &
captureStats()
{
    static CaptureStats stats;
    return stats;
}

} // namespace tartan::sim
