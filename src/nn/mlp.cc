/**
 * @file
 * MLP implementation: forward passes, SGD with the AXAR training
 * techniques, and the NPU sigmoid LUT.
 */

#include "nn/mlp.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tartan::nn {

using tartan::sim::Core;
using tartan::sim::MemDep;
using tartan::sim::PcId;

SigmoidLut::SigmoidLut() : table(entries)
{
    for (std::uint32_t i = 0; i < entries; ++i) {
        const float x =
            -range + 2.0f * range * static_cast<float>(i) / (entries - 1);
        table[i] = 1.0f / (1.0f + std::exp(-x));
    }
}

float
SigmoidLut::eval(float x) const
{
    if (x <= -range)
        return table.front();
    if (x >= range)
        return table.back();
    const float pos = (x + range) / (2.0f * range) * (entries - 1);
    const std::uint32_t idx = static_cast<std::uint32_t>(pos);
    const float frac = pos - static_cast<float>(idx);
    const std::uint32_t nxt = std::min(idx + 1, entries - 1);
    return table[idx] * (1.0f - frac) + table[nxt] * frac;
}

Mlp::Mlp(const MlpConfig &config, tartan::sim::Rng &rng) : cfg(config)
{
    TARTAN_ASSERT(cfg.layers.size() >= 2, "MLP needs at least two layers");
    std::size_t total = 0;
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        weightOffsets.push_back(total);
        total += static_cast<std::size_t>(cfg.layers[l]) * cfg.layers[l + 1];
        biasOffsets.push_back(total);
        total += cfg.layers[l + 1];
    }
    weightData.resize(total);
    // Xavier-style initialisation.
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const float scale =
            std::sqrt(2.0f / static_cast<float>(cfg.layers[l] +
                                                cfg.layers[l + 1]));
        const std::size_t w0 = weightOffsets[l];
        const std::size_t count =
            static_cast<std::size_t>(cfg.layers[l]) * cfg.layers[l + 1];
        for (std::size_t i = 0; i < count; ++i)
            weightData[w0 + i] =
                static_cast<float>(rng.gaussian(0.0, scale));
        for (std::uint32_t i = 0; i < cfg.layers[l + 1]; ++i)
            weightData[biasOffsets[l] + i] = 0.0f;
    }
    scratch.resize(cfg.layers.size());
    for (std::size_t l = 0; l < cfg.layers.size(); ++l)
        scratch[l].resize(cfg.layers[l]);
}

float
Mlp::sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

std::size_t
Mlp::parameterCount() const
{
    return weightData.size();
}

std::uint64_t
Mlp::macsPerInference() const
{
    std::uint64_t macs = 0;
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l)
        macs += static_cast<std::uint64_t>(cfg.layers[l]) *
                cfg.layers[l + 1];
    return macs;
}

void
Mlp::forwardInternal(std::span<const float> input,
                     std::vector<std::vector<float>> &acts) const
{
    TARTAN_ASSERT(input.size() == cfg.layers.front(), "input size mismatch");
    acts[0].assign(input.begin(), input.end());
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const std::uint32_t in_n = cfg.layers[l];
        const std::uint32_t out_n = cfg.layers[l + 1];
        const float *w = weightData.data() + weightOffsets[l];
        const float *b = weightData.data() + biasOffsets[l];
        acts[l + 1].resize(out_n);
        const bool last = (l + 2 == cfg.layers.size());
        for (std::uint32_t o = 0; o < out_n; ++o) {
            float acc = b[o];
            const float *row = w + static_cast<std::size_t>(o) * in_n;
            for (std::uint32_t i = 0; i < in_n; ++i)
                acc += row[i] * acts[l][i];
            acts[l + 1][o] =
                (!last || cfg.sigmoidOutput) ? sigmoid(acc) : acc;
        }
    }
}

void
Mlp::forward(std::span<const float> input, std::span<float> output) const
{
    forwardInternal(input, scratch);
    const auto &out = scratch.back();
    TARTAN_ASSERT(output.size() == out.size(), "output size mismatch");
    std::copy(out.begin(), out.end(), output.begin());
}

void
Mlp::forwardLut(std::span<const float> input, std::span<float> output,
                const SigmoidLut &lut) const
{
    std::vector<float> cur(input.begin(), input.end());
    std::vector<float> next;
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const std::uint32_t in_n = cfg.layers[l];
        const std::uint32_t out_n = cfg.layers[l + 1];
        const float *w = weightData.data() + weightOffsets[l];
        const float *b = weightData.data() + biasOffsets[l];
        next.assign(out_n, 0.0f);
        const bool last = (l + 2 == cfg.layers.size());
        for (std::uint32_t o = 0; o < out_n; ++o) {
            float acc = b[o];
            const float *row = w + static_cast<std::size_t>(o) * in_n;
            for (std::uint32_t i = 0; i < in_n; ++i)
                acc += row[i] * cur[i];
            next[o] = (!last || cfg.sigmoidOutput) ? lut.eval(acc) : acc;
        }
        cur.swap(next);
    }
    TARTAN_ASSERT(output.size() == cur.size(), "output size mismatch");
    std::copy(cur.begin(), cur.end(), output.begin());
}

void
Mlp::forwardTraced(std::span<const float> input, std::span<float> output,
                   Core &core, PcId pc) const
{
    // Software-executed neural model: each MAC costs a weight load, an
    // activation load (usually L1-resident), address arithmetic, and the
    // fused multiply-add itself.
    std::vector<float> cur(input.begin(), input.end());
    std::vector<float> next;
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const std::uint32_t in_n = cfg.layers[l];
        const std::uint32_t out_n = cfg.layers[l + 1];
        const float *w = weightData.data() + weightOffsets[l];
        const float *b = weightData.data() + biasOffsets[l];
        next.assign(out_n, 0.0f);
        const bool last = (l + 2 == cfg.layers.size());
        for (std::uint32_t o = 0; o < out_n; ++o) {
            float acc = b[o];
            const float *row = w + static_cast<std::size_t>(o) * in_n;
            for (std::uint32_t i = 0; i < in_n; ++i) {
                core.load(reinterpret_cast<tartan::sim::Addr>(row + i), pc,
                          MemDep::Independent);
                core.exec(3);
                acc += row[i] * cur[i];
            }
            // Library-call and activation overhead per neuron.
            core.exec(12);
            next[o] = (!last || cfg.sigmoidOutput) ? sigmoid(acc) : acc;
        }
        cur.swap(next);
    }
    TARTAN_ASSERT(output.size() == cur.size(), "output size mismatch");
    std::copy(cur.begin(), cur.end(), output.begin());
}

float
Mlp::lossAndGradient(std::span<const float> output,
                     std::span<const float> target,
                     std::vector<float> &dOut) const
{
    const std::size_t n = output.size();
    dOut.resize(n);
    float loss = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float y = output[i];
        const float t = target[i];
        switch (cfg.loss) {
          case Loss::Mse: {
            const float d = y - t;
            loss += d * d;
            dOut[i] = 2.0f * d;
            break;
          }
          case Loss::AsymmetricMse: {
            // Paper §V-F: overestimation (y > t) penalised alpha times
            // harder than underestimation.
            const float d = y - t;
            const float w = d > 0.0f ? cfg.asymAlpha : 1.0f;
            loss += w * d * d;
            dOut[i] = 2.0f * w * d;
            break;
          }
          case Loss::Bce: {
            const float eps = 1e-7f;
            const float yc = std::clamp(y, eps, 1.0f - eps);
            loss += -(t * std::log(yc) + (1.0f - t) * std::log(1.0f - yc));
            // With a sigmoid output the delta w.r.t. the pre-activation
            // is (y - t); we fold the sigmoid derivative cancellation in
            // by dividing out later; here report dL/dy.
            dOut[i] = (yc - t) / (yc * (1.0f - yc));
            break;
          }
        }
    }
    return loss / static_cast<float>(n);
}

float
Mlp::trainSample(std::span<const float> input,
                 std::span<const float> target)
{
    const std::size_t num_layers = cfg.layers.size();
    std::vector<std::vector<float>> acts(num_layers);
    forwardInternal(input, acts);

    std::vector<float> delta;
    const float loss = lossAndGradient(acts.back(), target, delta);

    // delta currently holds dL/dy of the output layer; convert to
    // dL/dz (pre-activation) where the output is sigmoidal.
    if (cfg.sigmoidOutput) {
        for (std::size_t i = 0; i < delta.size(); ++i) {
            const float y = acts.back()[i];
            delta[i] *= y * (1.0f - y);
        }
    }

    const float clip = cfg.gradClip;
    auto clipped = [clip](float g) {
        if (clip <= 0.0f)
            return g;
        return std::clamp(g, -clip, clip);
    };

    std::vector<float> prev_delta;
    for (std::size_t l = num_layers - 1; l-- > 0;) {
        const std::uint32_t in_n = cfg.layers[l];
        const std::uint32_t out_n = cfg.layers[l + 1];
        float *w = weightData.data() + weightOffsets[l];
        float *b = weightData.data() + biasOffsets[l];

        prev_delta.assign(in_n, 0.0f);
        for (std::uint32_t o = 0; o < out_n; ++o) {
            float *row = w + static_cast<std::size_t>(o) * in_n;
            const float d = delta[o];
            for (std::uint32_t i = 0; i < in_n; ++i) {
                prev_delta[i] += row[i] * d;
                const float grad =
                    clipped(d * acts[l][i]) + 2.0f * cfg.l2Lambda * row[i];
                row[i] -= cfg.learningRate * grad;
            }
            b[o] -= cfg.learningRate * clipped(d);
        }
        if (l > 0) {
            // Hidden activations are sigmoidal.
            for (std::uint32_t i = 0; i < in_n; ++i) {
                const float a = acts[l][i];
                prev_delta[i] *= a * (1.0f - a);
            }
        }
        delta.swap(prev_delta);
    }
    return loss;
}

float
Mlp::trainEpoch(std::span<const float> inputs,
                std::span<const float> targets, std::size_t count)
{
    const std::size_t in_n = cfg.layers.front();
    const std::size_t out_n = cfg.layers.back();
    TARTAN_ASSERT(inputs.size() >= count * in_n, "epoch input underflow");
    TARTAN_ASSERT(targets.size() >= count * out_n, "epoch target underflow");
    float acc = 0.0f;
    for (std::size_t s = 0; s < count; ++s) {
        acc += trainSample(inputs.subspan(s * in_n, in_n),
                           targets.subspan(s * out_n, out_n));
    }
    return count ? acc / static_cast<float>(count) : 0.0f;
}

} // namespace tartan::nn
