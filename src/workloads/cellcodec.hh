/**
 * @file
 * Exact serialisation of campaign cell results.
 *
 * The campaign-resilience layer (sim/campaign) persists cell results
 * in the resume store and the result cache, then feeds *decoded*
 * payloads back into the bench drivers. The resume guarantee — a
 * killed-and-resumed sweep emits BENCH JSON byte-identical to an
 * uninterrupted one — therefore hinges on this codec being exact:
 * every `decode(encode(x))` must reproduce x bit-for-bit, including
 * non-finite doubles a chaos run can produce.
 *
 * Encoding rules (single-line JSON, deterministic field order):
 *  - uint64 counters are decimal *strings* ("123…"), never JSON
 *    numbers — a double-typed JSON number would round 2^53+1;
 *  - doubles are C99 `%a` hexfloat strings ("0x1.8p+0", "nan",
 *    "inf"), which strtod round-trips exactly;
 *  - kernel rows and CPI stacks keep their vector order; metrics are
 *    a sorted map, so encoding is a pure function of the value.
 *
 * The payload embeds the codec version and the CPI taxonomy version;
 * decode rejects foreign versions, and both are folded into the
 * schema version that keys resume and cache entries — bumping
 * either invalidates persisted state instead of misreading it.
 *
 * describeStream() renders the fields that shape a run's op stream;
 * its FNV-1a 64 hash keys captures. describeCell() renders a cell's
 * complete simulated configuration — describeStream() plus every
 * timing-only field, each field once, hooks excluded — into a
 * canonical text whose FNV-1a 64 hash is the cell's content address.
 */

#ifndef TARTAN_WORKLOADS_CELLCODEC_HH
#define TARTAN_WORKLOADS_CELLCODEC_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json.hh"
#include "workloads/common.hh"

namespace tartan::workloads {

/** Codec layout version (bump on any encoding change). */
constexpr std::uint64_t kCellCodecVersion = 1;

/**
 * The persisted-payload schema version: codec layout x CPI taxonomy.
 * Keys resume and cache entries, so entries written by any
 * other codec or taxonomy are stale by construction.
 */
std::uint64_t cellSchemaVersion();

/** Exact encode of @p v ("%a" hexfloat; "nan"/"inf" round-trip too). */
std::string encodeDouble(double v);

/** Decode a %a/nan/inf string; false on malformed input. */
bool decodeDouble(const std::string &text, double &out);

/** Exact encode of @p v (decimal string). */
std::string encodeU64(std::uint64_t v);

/** Decode a decimal string; false on malformed input. */
bool decodeU64(const std::string &text, std::uint64_t &out);

/** Emit a kernel-counter array (names, counters, CPI stacks). */
void encodeKernels(std::ostream &os,
                   const std::vector<sim::KernelCounters> &kernels);

/** Decode a kernel-counter array; false on any malformed row. */
bool decodeKernels(const sim::json::Value &arr,
                   std::vector<sim::KernelCounters> &out);

/** Encode one RunResult as a single-line, exactly-round-tripping JSON. */
std::string encodeRunResult(const RunResult &res);

/**
 * Decode a payload produced by encodeRunResult. Returns false — with
 * a diagnostic in @p err when non-null — on malformed input or a
 * foreign codec/taxonomy version; @p out is unspecified on failure.
 */
bool decodeRunResult(const std::string &payload, RunResult &out,
                     std::string *err = nullptr);

/** Canonical text of @p robot's op stream: the fields that shape it. */
std::string describeStream(std::string_view robot,
                           const MachineSpec &spec,
                           const WorkloadOptions &opt);

/** The stream's key: FNV-1a 64 of describeStream(). */
std::uint64_t streamConfigHash(std::string_view robot,
                               const MachineSpec &spec,
                               const WorkloadOptions &opt);

/**
 * Canonical configuration text of one cell: codec and taxonomy
 * versions, describeStream(), every timing-only field, and @p salt
 * (extra identity for driver dimensions, e.g. a fault spec).
 */
std::string describeCell(std::string_view robot, const MachineSpec &spec,
                         const WorkloadOptions &opt,
                         std::string_view salt = {});

/** The cell's content address: FNV-1a 64 of describeCell(). */
std::uint64_t cellConfigHash(std::string_view robot,
                             const MachineSpec &spec,
                             const WorkloadOptions &opt,
                             std::string_view salt = {});

} // namespace tartan::workloads

#endif // TARTAN_WORKLOADS_CELLCODEC_HH
