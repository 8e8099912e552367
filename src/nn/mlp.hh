/**
 * @file
 * Multilayer perceptron with the training features Tartan's AXAR flow
 * relies on (paper §V-F): an asymmetric piece-wise loss that penalises
 * overestimation (alpha = 8), L2 regularisation (lambda = 0.01) and
 * gradient clipping (c = 2.5).
 *
 * Inference comes in three flavours:
 *  - forward():       plain float math (host training / reference),
 *  - forwardLut():    sigmoid through the NPU's 512-entry lookup table,
 *  - forwardTraced(): plain math *plus* instrumentation of every weight
 *    load and MAC on a simulated core, modelling software-executed
 *    neural networks (paper Fig. 8, 'S' bars).
 */

#ifndef TARTAN_NN_MLP_HH
#define TARTAN_NN_MLP_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/core.hh"
#include "sim/rng.hh"

namespace tartan::nn {

/** Loss functions used by the paper's three neural workloads. */
enum class Loss { Mse, Bce, AsymmetricMse };

/** Training and topology configuration. */
struct MlpConfig {
    /** Layer widths including input and output, e.g. {6, 16, 16, 1}. */
    std::vector<std::uint32_t> layers;
    Loss loss = Loss::Mse;
    float learningRate = 0.01f;
    float l2Lambda = 0.0f;       //!< L2 regularisation strength
    float gradClip = 0.0f;       //!< 0 disables clipping
    float asymAlpha = 8.0f;      //!< overestimation penalty multiplier
    /** Output layer passes through sigmoid (classification) or is linear. */
    bool sigmoidOutput = false;
};

/** 512-entry 32-bit sigmoid lookup table as held in each NPU PE. */
class SigmoidLut
{
  public:
    SigmoidLut();
    /** LUT sigmoid with linear interpolation between entries. */
    float eval(float x) const;
    static constexpr std::uint32_t entries = 512;
    static constexpr float range = 8.0f;  //!< covers [-8, 8]

  private:
    std::vector<float> table;
};

/** A fully-connected network with sigmoid hidden activations. */
class Mlp
{
  public:
    Mlp(const MlpConfig &config, tartan::sim::Rng &rng);

    /** Reference inference. */
    void forward(std::span<const float> input,
                 std::span<float> output) const;

    /** Inference with the NPU's LUT-based sigmoid. */
    void forwardLut(std::span<const float> input, std::span<float> output,
                    const SigmoidLut &lut) const;

    /**
     * Inference with every weight load and MAC charged to a simulated
     * core, modelling a software-executed neural model.
     */
    void forwardTraced(std::span<const float> input,
                       std::span<float> output, tartan::sim::Core &core,
                       tartan::sim::PcId pc) const;

    /**
     * One SGD step on a single sample. Returns the sample loss
     * (before the step).
     */
    float trainSample(std::span<const float> input,
                      std::span<const float> target);

    /** One epoch over a dataset; returns the mean loss. */
    float trainEpoch(std::span<const float> inputs,
                     std::span<const float> targets, std::size_t count);

    /** Total weight + bias count. */
    std::size_t parameterCount() const;
    /** Total multiply-accumulate operations of one inference. */
    std::uint64_t macsPerInference() const;

    const MlpConfig &config() const { return cfg; }
    /** Adjust the SGD step size (learning-rate schedules). */
    void setLearningRate(float lr) { cfg.learningRate = lr; }

    /** Direct weight access (tests, serialisation). */
    std::vector<float> &weights() { return weightData; }
    const std::vector<float> &weights() const { return weightData; }

  private:
    static float sigmoid(float x);

    /** Forward pass retaining activations (training). */
    void forwardInternal(std::span<const float> input,
                         std::vector<std::vector<float>> &acts) const;
    float lossAndGradient(std::span<const float> output,
                          std::span<const float> target,
                          std::vector<float> &dOut) const;

    MlpConfig cfg;
    /** Per-layer weight matrices (row-major out x in) then biases. */
    std::vector<float> weightData;
    std::vector<std::size_t> weightOffsets;  //!< per-layer weight start
    std::vector<std::size_t> biasOffsets;    //!< per-layer bias start
    mutable std::vector<std::vector<float>> scratch;
};

} // namespace tartan::nn

#endif // TARTAN_NN_MLP_HH
