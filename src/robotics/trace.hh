/**
 * @file
 * Source-level instrumentation shim.
 *
 * Robotics kernels perform their real computation on real heap arrays
 * while reporting every load, store and operation batch to a simulated
 * core through this shim. With no core attached the shim is a plain
 * pass-through, so the same kernel code doubles as a native library.
 * This substitutes for ZSim's binary instrumentation (see DESIGN.md).
 */

#ifndef TARTAN_ROBOTICS_TRACE_HH
#define TARTAN_ROBOTICS_TRACE_HH

#include <cstdint>

#include "sim/core.hh"
#include "sim/types.hh"

namespace tartan::robotics {

using tartan::sim::Addr;
using tartan::sim::MemDep;
using tartan::sim::PcId;

/** Instrumented-memory handle passed into every kernel. */
class Mem
{
  public:
    explicit Mem(tartan::sim::Core *core = nullptr) : coreModel(core) {}

    /** Instrumented load: returns *ptr and reports the access. */
    template <typename T>
    T
    loadv(const T *ptr, PcId pc, MemDep dep = MemDep::Independent)
    {
        if (coreModel)
            coreModel->load(reinterpret_cast<Addr>(ptr), pc, dep,
                            sizeof(T));
        return *ptr;
    }

    /** Instrumented store. */
    template <typename T>
    void
    storev(T *ptr, T value, PcId pc)
    {
        if (coreModel)
            coreModel->store(reinterpret_cast<Addr>(ptr), pc, sizeof(T));
        *ptr = value;
    }

    /**
     * Report @p ops executed scalar instructions, integer or
     * floating-point alike (every op has the same issue cost).
     */
    void
    exec(std::uint64_t ops)
    {
        if (coreModel)
            coreModel->exec(ops);
    }

    tartan::sim::Core *core() { return coreModel; }
    bool attached() const { return coreModel != nullptr; }

  private:
    tartan::sim::Core *coreModel;
};

} // namespace tartan::robotics

#endif // TARTAN_ROBOTICS_TRACE_HH
