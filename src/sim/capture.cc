/**
 * @file
 * Capture file I/O: header framing, CRC validation, atomic save.
 */

#include "sim/capture.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>

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
    std::uint64_t reserved[2];
};

static_assert(sizeof(CaptureHeader) == 64, "capture header is 64 bytes");

constexpr char kMagic[8] = {'T', 'A', 'R', 'T', 'A', 'N', 'C', '\0'};

void
setError(std::string *err, const std::string &message)
{
    if (err)
        *err = message;
}

/** CRC-32 of the body: the record bytes chained with the aux bytes. */
std::uint32_t
bodyCrc(const CaptureTrace &trace)
{
    const auto *records = reinterpret_cast<const char *>(trace.records.data());
    const auto *aux = reinterpret_cast<const char *>(trace.aux.data());
    return crc32({aux, trace.aux.size()},
                 crc32({records, trace.records.size() * sizeof(CapRecord)}));
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
    if (file_size < long(sizeof(CaptureHeader)) ||
        hdr.recordCount > body / sizeof(CapRecord) ||
        hdr.auxBytes != body - hdr.recordCount * sizeof(CapRecord)) {
        setError(err, "truncated or oversized body (header claims " +
                          std::to_string(hdr.recordCount) +
                          " records + " + std::to_string(hdr.auxBytes) +
                          " aux bytes)");
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
    // A capture must be exactly header + records + aux: trailing bytes
    // mean the header lies about the body it frames.
    if (ok && std::fgetc(f) != EOF)
        ok = false;
    std::fclose(f);
    if (!ok) {
        setError(err, "truncated or oversized body (header claims " +
                          std::to_string(hdr.recordCount) +
                          " records + " + std::to_string(hdr.auxBytes) +
                          " aux bytes)");
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
