/**
 * @file
 * Symbolic names for the robotics PcId instrumentation sites.
 *
 * Every load/store site the kernels report through robotics::Mem uses a
 * compile-time PcId constant from a `*_pc` namespace; this translation
 * unit names each site and the data structure behind it, once, as a
 * constant table, so the tracing layer's per-PC miss profile
 * (sim/trace) reads as "k-d tree node (pointer chase)" instead of
 * "pc121". workloads::Machine hands the table to an attached
 * TraceSession.
 */

#ifndef TARTAN_ROBOTICS_PC_NAMES_HH
#define TARTAN_ROBOTICS_PC_NAMES_HH

#include <span>

#include "sim/trace.hh"

namespace tartan::robotics {

/** Every robotics PcId site (constant data, one entry per PcId). */
std::span<const sim::PcSite> pcSites();

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_PC_NAMES_HH
