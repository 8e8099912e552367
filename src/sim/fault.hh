/**
 * @file
 * Deterministic fault injection and graceful-degradation helpers.
 *
 * Tartan's safety argument (paper §V, Table 2) is that robots
 * *tolerate* imprecision: downstream planners and filters absorb
 * bounded error. This subsystem makes that claim testable by injecting
 * seeded, bit-reproducible faults at three layers:
 *
 *  - **sensor**: dropped scans/frames, stuck (stale) readings, noise
 *    bursts, outlier spikes and NaN readings at the point a workload
 *    synthesises its observations;
 *  - **surrogate**: transient garbage outputs and inflated
 *    approximation error on the NPU's functional results (stressing
 *    the Table 2 tolerance claim);
 *  - **mem**: demand-latency spikes and prefetcher blackout windows in
 *    the memory path, modelling degraded hardware;
 *  - **cell**: whole-run failures — a simulated crash (CellCrashError
 *    thrown out of the run) or a wedged cell (cooperative hang until
 *    the campaign watchdog fires) — exercising the campaign
 *    retry/quarantine/resume machinery deterministically.
 *
 * A FaultPlan is parsed from a compact spec string (typically the
 * TARTAN_FAULTS environment variable) and echoed verbatim into every
 * BENCH manifest, so a campaign can be reproduced bit-for-bit from its
 * artifact. Each robot run derives a FaultInjector with its own RNG
 * streams (one per layer), keyed by the plan seed and a stream name,
 * so fault schedules never perturb the workload's own randomness.
 *
 * Null-hook guarantee: with no injector attached (or a layer's rates
 * all zero) every hook is a no-op — no RNG draws, no timing change, no
 * functional change.
 *
 * Spec grammar (';'-separated groups, layers take ','-separated
 * `name=rate[@magnitude]` items; rates are probabilities in [0, 1]):
 *
 *   spec      := group (';' group)*
 *   group     := "seed=" <uint> | layer ':' item (',' item)*
 *   layer     := "sensor" | "surrogate" | "mem" | "cell"
 *   item      := name '=' rate ['@' magnitude]
 *
 *   sensor    : drop, stuck, noise(@sigma, of range), spike(@offset,
 *               of range), nan
 *   surrogate : garbage(@amplitude), inflate(@sigma)
 *   mem       : spike(@cycles), blackout(@accesses)
 *   cell      : crash(@afterAccesses), hang(@afterAccesses) — the
 *               magnitude gates the trigger window, so `crash=1@400`
 *               crashes deterministically on the 401st hooked access
 *
 * Example:
 *   TARTAN_FAULTS="seed=7;sensor:drop=0.05,nan=0.01;mem:spike=0.001@400"
 */

#ifndef TARTAN_SIM_FAULT_HH
#define TARTAN_SIM_FAULT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace tartan::sim {

class FaultInjector;

/** One fault class: an occurrence probability plus a magnitude. */
struct FaultRate {
    double rate = 0.0;  //!< per-opportunity probability in [0, 1]
    double mag = 0.0;   //!< class-specific magnitude (see grammar)
};

/** Injection counters, kept per injector (i.e. per robot run). */
struct FaultStats {
    std::uint64_t sensorDrops = 0;   //!< readings or frames dropped
    std::uint64_t sensorStuck = 0;   //!< readings stuck at a stale value
    std::uint64_t sensorNoise = 0;   //!< readings with a noise burst
    std::uint64_t sensorSpikes = 0;  //!< readings with an outlier spike
    std::uint64_t sensorNans = 0;    //!< readings replaced by NaN
    std::uint64_t surrogateGarbage = 0;   //!< NPU outputs made garbage
    std::uint64_t surrogateInflated = 0;  //!< NPU outputs given extra error
    std::uint64_t memSpikes = 0;            //!< demand-latency spikes
    std::uint64_t memBlackouts = 0;         //!< blackout windows opened
    std::uint64_t memBlackoutAccesses = 0;  //!< accesses inside windows
    std::uint64_t cellCrashes = 0;          //!< injected cell crashes
    std::uint64_t cellHangs = 0;            //!< injected cell hangs

    std::uint64_t
    sensorTotal() const
    {
        return sensorDrops + sensorStuck + sensorNoise + sensorSpikes +
               sensorNans;
    }

    /** Every injected fault across all four layers. */
    std::uint64_t
    total() const
    {
        return sensorTotal() + surrogateGarbage + surrogateInflated +
               memSpikes + memBlackouts + cellCrashes + cellHangs;
    }
};

/**
 * A parsed, validated fault specification. Plans are value types:
 * copy freely, derive per-run injectors with makeInjector().
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse @p spec (see the grammar above). On failure returns false
     * and leaves a diagnostic in @p err (when non-null); @p out is
     * unspecified. An empty spec parses to an all-zero (no-op) plan.
     */
    static bool parse(std::string_view spec, FaultPlan &out,
                      std::string *err = nullptr);

    /**
     * Plan from the TARTAN_FAULTS environment variable. Empty optional
     * when the variable is unset or empty; fatal() on a malformed spec
     * (a user configuration error).
     */
    static std::optional<FaultPlan> fromEnv();

    /**
     * Derive the injector for one run. @p stream (typically the robot
     * name) decorrelates fault schedules between runs of one campaign
     * while keeping each schedule a pure function of (plan, stream).
     */
    std::unique_ptr<FaultInjector>
    makeInjector(std::string_view stream) const;

    /** The spec string, verbatim (echoed into BENCH manifests). */
    const std::string &spec() const { return specText; }
    std::uint64_t seed() const { return seedVal; }

    bool
    sensorEnabled() const
    {
        return drop.rate > 0 || stuck.rate > 0 || noise.rate > 0 ||
               spike.rate > 0 || nan.rate > 0;
    }
    bool
    surrogateEnabled() const
    {
        return garbage.rate > 0 || inflate.rate > 0;
    }
    bool
    memEnabled() const
    {
        return memSpike.rate > 0 || memBlackout.rate > 0;
    }
    bool
    cellEnabled() const
    {
        return cellCrash.rate > 0 || cellHang.rate > 0;
    }
    bool
    anyEnabled() const
    {
        return sensorEnabled() || surrogateEnabled() || memEnabled() ||
               cellEnabled();
    }

    // Sensor layer.
    FaultRate drop;   //!< reading/frame lost; consumer holds the last
    FaultRate stuck;  //!< reading repeats the previous clean value
    FaultRate noise;  //!< Gaussian burst, sigma = mag * sensor range
    FaultRate spike;  //!< outlier offset of +-mag * sensor range
    FaultRate nan;    //!< non-finite reading

    // Surrogate (NPU) layer.
    FaultRate garbage;  //!< outputs replaced by +-mag garbage and NaNs
    FaultRate inflate;  //!< Gaussian error of sigma mag added

    // Memory-timing layer.
    FaultRate memSpike;     //!< +mag cycles on one demand access
    FaultRate memBlackout;  //!< prefetcher disabled for mag accesses

    // Cell layer (whole-run failures; mag = trigger-window start).
    FaultRate cellCrash;  //!< throw CellCrashError out of the run
    FaultRate cellHang;   //!< wedge the run until the watchdog fires

  private:
    std::string specText;
    std::uint64_t seedVal = 42;
};

/** Sensor-fault classification of one reading. */
enum class SensorFaultKind { None, Drop, Stuck, Noise, Spike, Nan };

/**
 * The per-run injection engine. One instance per robot run; each layer
 * draws from its own RNG stream so e.g. enabling memory faults never
 * shifts the sensor-fault schedule.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, std::uint64_t stream_seed);

    /** Result of passing one reading through the sensor layer. */
    struct Reading {
        double value;
        SensorFaultKind kind;
    };

    /**
     * Maybe corrupt one sensor reading. @p span is the plausible range
     * of the sensor (scales noise/spike magnitudes). A Drop result
     * returns the clean value; the caller decides the drop semantics
     * (hold last good, skip, ...).
     */
    Reading sensor(double clean, double span);

    /** Whole-frame drop (camera frame, depth cloud), at the drop rate. */
    bool dropFrame();

    /**
     * Corrupt a buffer of samples in place (image pixels, packed cloud
     * coordinates), one sensor-layer draw per sample with
     * span = hi - lo. Returns the number of corrupted samples.
     * Sanitize afterwards with sanitizeSamples().
     */
    std::uint64_t corruptSamples(float *data, std::size_t n, float lo,
                                 float hi);

    /**
     * Surrogate layer: maybe corrupt one NPU inference result in
     * place (one draw per invocation).
     */
    void corruptSurrogate(std::span<float> out);

    /** Memory layer: extra cycles charged to one demand access. */
    Cycles memPenalty();

    /**
     * Memory layer: true while a prefetcher blackout window is open
     * (call once per prefetcher-eligible access; advances the window).
     */
    bool prefetchBlackout();

    /**
     * Cell layer: one failure opportunity (call once per hooked demand
     * access). Past the trigger window, a crash draw throws
     * CellCrashError and a hang draw parks the thread in
     * hangUntilWatchdog() — the campaign's watchdog (or, with none
     * armed, a genuine hang for the kill-resume path). No-op with the
     * cell layer disabled; draws from its own RNG stream, so enabling
     * it never perturbs the other layers' schedules.
     */
    void cellFault();

    const FaultPlan &plan() const { return planData; }
    const FaultStats &stats() const { return statsData; }

  private:
    FaultPlan planData;
    Rng sensorRng;
    Rng surrogateRng;
    Rng memRng;
    Rng cellRng;
    double lastClean = 0.0;
    bool haveLastClean = false;
    std::uint64_t blackoutLeft = 0;
    std::uint64_t cellOpportunities = 0;
    FaultStats statsData;
};

/**
 * Clamp a sample buffer into [lo, hi], replacing non-finite entries by
 * the range midpoint. Returns the number of repaired samples. Always
 * safe to call (no-op on clean data): the workload-side input
 * sanitizer behind `metrics["recoveries"]`.
 */
std::uint64_t sanitizeSamples(float *data, std::size_t n, float lo,
                              float hi);

/**
 * A sanitizing scalar-sensor wrapper: corrupts through @p inj (when
 * non-null), then repairs implausible readings — non-finite values and
 * dropped readings fall back to the last good value, out-of-range
 * values clamp to [lo, hi]. Counts faults seen and repairs performed;
 * with a null injector and clean in-range inputs it is an exact
 * pass-through.
 */
class GuardedSensor
{
  public:
    GuardedSensor(FaultInjector *inj, double lo, double hi)
        : injector(inj), loBound(lo), hiBound(hi)
    {
    }

    /** Pass one reading through fault injection plus sanitizing. */
    double read(double clean);

    std::uint64_t faults() const { return faultCount; }
    std::uint64_t recoveries() const { return recoveryCount; }

  private:
    FaultInjector *injector;
    double loBound;
    double hiBound;
    double lastGood = 0.0;
    bool haveLast = false;
    std::uint64_t faultCount = 0;
    std::uint64_t recoveryCount = 0;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_FAULT_HH
