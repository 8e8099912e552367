/**
 * @file
 * NPU model implementation.
 */

#include "core/npu.hh"

#include <algorithm>

#include "sim/capture.hh"
#include "sim/fault.hh"

namespace tartan::core {

using tartan::sim::Core;
using tartan::sim::Cycles;

void
NpuModel::chargeConfigure(Core &core, std::uint64_t param_count)
{
    ++statsData.configUploads;
    const std::uint64_t bytes = param_count * sizeof(float);
    const std::uint64_t messages =
        (bytes + 63) / 64 + 1;  // weights plus the topology descriptor
    const Cycles comm_each = cfg.placement == NpuPlacement::Integrated
                                 ? cfg.commLatency
                                 : cfg.coprocCommLatency;
    // Configuration streams through the FIFO; messages pipeline, so
    // charge one latency plus a cycle per message of occupancy.
    const Cycles total = comm_each + messages;
    statsData.commCycles += total;
    core.stall(total, tartan::sim::CpiCat::Npu);
    core.countInstructions(messages);
}

void
NpuModel::configure(Core &core, const tartan::nn::Mlp &mlp)
{
    // The stalls below depend on this NPU's configuration, so a capture
    // records the semantic event (parameter count) and suppresses the
    // raw charges; replay recomputes them from the replay-side config.
    if (auto *cap = core.captureSession())
        cap->npuConfigure(mlp.parameterCount());
    tartan::sim::CaptureSuppress guard(core.captureSession());
    chargeConfigure(core, mlp.parameterCount());
}

Cycles
NpuModel::inferenceCycles(std::span<const std::uint32_t> layers) const
{
    Cycles cycles = 0;
    for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
        const std::uint64_t macs =
            static_cast<std::uint64_t>(layers[l]) * layers[l + 1];
        // Each PE issues one MAC per cycle; neurons are distributed
        // over the PEs, then the pipeline drains and the sigmoid LUT
        // is read once per output neuron.
        cycles += (macs + cfg.pes - 1) / cfg.pes;
        cycles += cfg.macDrainLatency;
        cycles += (layers[l + 1] + cfg.pes - 1) / cfg.pes;
    }
    return cycles;
}

void
NpuModel::chargeInfer(Core &core, std::uint64_t in_floats,
                      std::uint64_t out_floats,
                      std::span<const std::uint32_t> layers)
{
    ++statsData.invocations;
    const Cycles comm_each = cfg.placement == NpuPlacement::Integrated
                                 ? cfg.commLatency
                                 : cfg.coprocCommLatency;
    // One message per 64 B of payload in each direction.
    const std::uint64_t in_msgs = (in_floats * sizeof(float) + 63) / 64;
    const std::uint64_t out_msgs =
        (out_floats * sizeof(float) + 63) / 64;
    const Cycles comm =
        comm_each * (std::max<std::uint64_t>(in_msgs, 1) +
                     std::max<std::uint64_t>(out_msgs, 1));
    const Cycles exec = cfg.placement == NpuPlacement::Integrated
                            ? inferenceCycles(layers)
                            : 0;  // optimistic off-die array
    statsData.commCycles += comm;
    statsData.inferenceCycles += exec;
    core.stall(comm + exec, tartan::sim::CpiCat::Npu);
    core.countInstructions(4);  // enqueue inputs, dequeue outputs
}

void
NpuModel::infer(Core &core, const tartan::nn::Mlp &mlp,
                std::span<const float> input, std::span<float> output)
{
    mlp.forwardLut(input, output, lut);
    if (faults)
        faults->corruptSurrogate(output);

    // As in configure(): semantic capture event, raw charges
    // suppressed, so replay can rescale them to its own NpuConfig.
    if (auto *cap = core.captureSession())
        cap->npuInfer(input.size(), output.size(), mlp.config().layers);
    tartan::sim::CaptureSuppress guard(core.captureSession());
    chargeInfer(core, input.size(), output.size(), mlp.config().layers);
}

double
NpuModel::memoryKB() const
{
    // Per PE: 2 KB weights + 512x32b sigmoid LUT + 64 B I/O buffers.
    const double per_pe = 2.0 + 2.0 + 64.0 / 1024.0;
    // Interconnect: 1.25 KB bus scheduler + 1 KB I/O + 32 B config FIFO.
    const double interconnect = 1.25 + 1.0 + 32.0 / 1024.0;
    return cfg.pes * per_pe + interconnect;
}

double
NpuModel::areaUm2() const
{
    // Linear fit of the paper's Table III (14 nm data from [78],[154]):
    // 2 PEs -> 920, 4 -> 1661, 8 -> 3144 um^2.
    return 179.0 + 370.5 * cfg.pes;
}

} // namespace tartan::core
