/**
 * @file
 * Tartan's neural processing unit (paper §V-C, Fig. 3, §VIII-B).
 *
 * A spatial array of PEs, each with a pipelined 32-bit MAC, a 512-entry
 * sigmoid LUT, 2 KB of weight storage and small I/O buffers, joined by
 * a bus interconnect with a configuration FIFO.
 *
 * Two placements are modelled:
 *  - Integrated: in-pipeline, 4-cycle CPU<->NPU messages, MACs issue
 *    one per cycle per PE with an 8-cycle drain per layer;
 *  - Coprocessor: off-die (FSD-style), 104-cycle messages and
 *    optimistically zero-cycle inference.
 *
 * Functional results are produced with the LUT-based sigmoid, so NPU
 * outputs differ (slightly) from the float reference, exactly like a
 * real fixed-function activation unit.
 */

#ifndef TARTAN_CORE_NPU_HH
#define TARTAN_CORE_NPU_HH

#include <cstdint>
#include <span>

#include "nn/mlp.hh"
#include "sim/core.hh"

namespace tartan::sim {
class FaultInjector;
} // namespace tartan::sim

namespace tartan::core {

/** Where the NPU sits relative to the CPU pipeline. */
enum class NpuPlacement { Integrated, Coprocessor };

/** NPU configuration. */
struct NpuConfig {
    std::uint32_t pes = 4;
    /** Per-layer pipeline drain. */
    static constexpr tartan::sim::Cycles macDrainLatency = 8;
    tartan::sim::Cycles commLatency = 4;      //!< integrated message cost
    /** Off-die (coprocessor) message cost. */
    static constexpr tartan::sim::Cycles coprocCommLatency = 104;
    NpuPlacement placement = NpuPlacement::Integrated;
};

/** NPU runtime statistics. */
struct NpuStats {
    std::uint64_t invocations = 0;
    std::uint64_t configUploads = 0;
    tartan::sim::Cycles inferenceCycles = 0;
    tartan::sim::Cycles commCycles = 0;
};

/** The NPU model. */
class NpuModel
{
  public:
    explicit NpuModel(const NpuConfig &config) : cfg(config) {}

    /**
     * Upload layers and weights; charged as one message per 64 bytes of
     * parameters.
     */
    void configure(tartan::sim::Core &core, const tartan::nn::Mlp &mlp);

    /**
     * Run one inference. The CPU blocks for the communication plus (for
     * the integrated design) the PE-array execution time.
     */
    void infer(tartan::sim::Core &core, const tartan::nn::Mlp &mlp,
               std::span<const float> input, std::span<float> output);

    /** PE-array cycles for one inference over raw layer widths. */
    tartan::sim::Cycles
    inferenceCycles(std::span<const std::uint32_t> layers) const;

    /**
     * Timing/accounting half of configure(): charge the upload of
     * @p param_count parameters to @p core and update the stats. The
     * live path calls it after recording a semantic capture event;
     * replay calls it directly with the captured parameter count, so a
     * replayed run recomputes these charges from *its* NpuConfig (the
     * one sweepable knob that shapes op arguments).
     */
    void chargeConfigure(tartan::sim::Core &core,
                         std::uint64_t param_count);

    /**
     * Timing/accounting half of infer(): charge one inference with
     * @p in_floats inputs, @p out_floats outputs and the given layer
     * widths. Shared by the live path (after the functional forward
     * pass) and replay (which has no functional state to forward).
     */
    void chargeInfer(tartan::sim::Core &core, std::uint64_t in_floats,
                     std::uint64_t out_floats,
                     std::span<const std::uint32_t> layers);

    /** SRAM footprint in KB (Table III). */
    double memoryKB() const;
    /** Silicon area in um^2 (Table III). */
    double areaUm2() const;

    const NpuConfig &config() const { return cfg; }
    const NpuStats &stats() const { return statsData; }

    /**
     * Attach (or detach, with nullptr) a fault injector: inference
     * outputs may be corrupted per the surrogate layer of its plan
     * (garbage outputs, inflated approximation error). With no injector
     * the functional results are untouched.
     */
    void setFaultInjector(tartan::sim::FaultInjector *inj) { faults = inj; }

  private:
    NpuConfig cfg;
    NpuStats statsData;
    tartan::nn::SigmoidLut lut;
    tartan::sim::FaultInjector *faults = nullptr;  //!< not owned
};

} // namespace tartan::core

#endif // TARTAN_CORE_NPU_HH
