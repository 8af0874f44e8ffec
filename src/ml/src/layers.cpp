#include "mvreju/ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "mvreju/num/gemm.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/util/parallel.hpp"

namespace mvreju::ml {

namespace {

/// He-uniform initialisation bound for `fan_in` inputs.
float he_bound(std::size_t fan_in) {
    return std::sqrt(6.0f / static_cast<float>(fan_in));
}

void sgd_momentum(std::vector<float>& params, std::vector<float>& grads,
                  std::vector<float>& velocity, float lr, float momentum) {
    for (std::size_t i = 0; i < params.size(); ++i) {
        velocity[i] = momentum * velocity[i] - lr * grads[i];
        params[i] += velocity[i];
    }
}

/// Below this batch size the transposed-weight copy for the NN GEMM costs
/// more than it saves; Dense::infer uses the NT kernel directly instead.
constexpr std::size_t kDenseGemmMinBatch = 8;

/// GEMM FLOPs (2·M·N·K multiply-adds) spent by the inference kernels.
void count_gemm_flops(std::uint64_t flops) {
    static obs::Counter& counter = obs::metrics().counter("ml.infer.gemm_flops");
    counter.add(flops);
}

/// Run fn(sample) for every sample in [0, nb); parallel only when asked, so
/// nested callers (Sequential already parallelises over its own chunking)
/// can force the serial path with num_threads == 1.
void for_each_sample(std::size_t nb, std::size_t num_threads,
                     const std::function<void(std::size_t)>& fn) {
    if (num_threads == 1 || nb == 1) {
        for (std::size_t s = 0; s < nb; ++s) fn(s);
        return;
    }
    util::parallel_for(nb, fn, num_threads);
}

}  // namespace

// ---------------------------------------------------------------- Dense ---

Dense::Dense(std::size_t inputs, std::size_t outputs, util::Rng& rng)
    : inputs_(inputs),
      outputs_(outputs),
      params_(inputs * outputs + outputs, 0.0f),
      grads_(params_.size(), 0.0f),
      velocity_(params_.size(), 0.0f) {
    if (inputs == 0 || outputs == 0) throw std::invalid_argument("Dense: zero size");
    const float bound = he_bound(inputs);
    for (std::size_t i = 0; i < inputs * outputs; ++i)
        params_[i] = static_cast<float>(rng.uniform(-bound, bound));
}

Tensor Dense::forward(const Tensor& input, bool training) {
    if (input.size() != inputs_)
        throw std::invalid_argument("Dense: expected " + std::to_string(inputs_) +
                                    " input elements, got shape " +
                                    shape_string(input.shape()));
    if (training) last_input_ = input;
    Tensor out({outputs_});
    const float* w = params_.data();
    const float* bias = params_.data() + inputs_ * outputs_;
    for (std::size_t o = 0; o < outputs_; ++o) {
        float acc = bias[o];
        const float* row = w + o * inputs_;
        for (std::size_t i = 0; i < inputs_; ++i) acc += row[i] * input[i];
        out[o] = acc;
    }
    return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
    if (grad_output.size() != outputs_)
        throw std::invalid_argument("Dense: gradient size mismatch");
    if (last_input_.size() != inputs_)
        throw std::logic_error("Dense: backward without training forward");
    Tensor grad_in({inputs_});
    float* gw = grads_.data();
    float* gb = grads_.data() + inputs_ * outputs_;
    const float* w = params_.data();
    for (std::size_t o = 0; o < outputs_; ++o) {
        const float go = grad_output[o];
        gb[o] += go;
        float* grow = gw + o * inputs_;
        const float* wrow = w + o * inputs_;
        for (std::size_t i = 0; i < inputs_; ++i) {
            grow[i] += go * last_input_[i];
            grad_in[i] += go * wrow[i];
        }
    }
    return grad_in;
}

Tensor Dense::infer(const Tensor& batch, Workspace& ws,
                    std::size_t num_threads) const {
    if (batch.rank() != 2 || batch.shape()[1] != inputs_)
        throw std::invalid_argument("Dense: expected (N, " + std::to_string(inputs_) +
                                    ") batch, got " + shape_string(batch.shape()));
    const std::size_t nb = batch.shape()[0];
    Tensor out = ws.take({nb, outputs_});
    const float* w = params_.data();
    const float* bias = w + inputs_ * outputs_;
    num::fill_rows(nb, outputs_, bias, out.data().data());
    if (nb >= kDenseGemmMinBatch) {
        // Large batch: one transposed weight copy turns the product into the
        // streaming NN kernel (vectorises over outputs).
        std::vector<float>& wt = ws.aux(inputs_ * outputs_);
        num::transpose(outputs_, inputs_, w, wt.data());
        num::sgemm(nb, outputs_, inputs_, batch.data().data(), wt.data(),
                   out.data().data(), num_threads);
    } else {
        num::sgemm_nt(nb, outputs_, inputs_, batch.data().data(), w,
                      out.data().data(), num_threads);
    }
    count_gemm_flops(2ull * nb * outputs_ * inputs_);
    return out;
}

void Dense::apply_gradients(float lr, float momentum) {
    sgd_momentum(params_, grads_, velocity_, lr, momentum);
}

void Dense::zero_gradients() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

// --------------------------------------------------------------- Conv2D ---

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t pad, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      params_(out_channels * in_channels * kernel * kernel + out_channels, 0.0f),
      grads_(params_.size(), 0.0f),
      velocity_(params_.size(), 0.0f) {
    if (in_channels == 0 || out_channels == 0 || kernel == 0)
        throw std::invalid_argument("Conv2D: zero size");
    const float bound = he_bound(in_channels * kernel * kernel);
    const std::size_t weight_count = out_channels * in_channels * kernel * kernel;
    for (std::size_t i = 0; i < weight_count; ++i)
        params_[i] = static_cast<float>(rng.uniform(-bound, bound));
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
    if (input.rank() != 3 || input.shape()[0] != in_channels_)
        throw std::invalid_argument("Conv2D: expected (" +
                                    std::to_string(in_channels_) +
                                    ", H, W) input, got " +
                                    shape_string(input.shape()));
    const std::size_t h = input.shape()[1];
    const std::size_t w = input.shape()[2];
    if (h + 2 * pad_ < kernel_ || w + 2 * pad_ < kernel_)
        throw std::invalid_argument(
            "Conv2D: kernel " + std::to_string(kernel_) + " with pad " +
            std::to_string(pad_) + " exceeds input " + shape_string(input.shape()));
    const std::size_t oh = h + 2 * pad_ - kernel_ + 1;
    const std::size_t ow = w + 2 * pad_ - kernel_ + 1;
    if (training) last_input_ = input;

    Tensor out({out_channels_, oh, ow});
    const float* bias = params_.data() + out_channels_ * in_channels_ * kernel_ * kernel_;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
                float acc = bias[oc];
                for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                    for (std::size_t ky = 0; ky < kernel_; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(y + ky) -
                            static_cast<std::ptrdiff_t>(pad_);
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
                        for (std::size_t kx = 0; kx < kernel_; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(x + kx) -
                                static_cast<std::ptrdiff_t>(pad_);
                            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                            acc += weight(oc, ic, ky, kx) *
                                   input.at3(ic, static_cast<std::size_t>(iy),
                                             static_cast<std::size_t>(ix));
                        }
                    }
                }
                out.at3(oc, y, x) = acc;
            }
        }
    }
    return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
    if (last_input_.rank() != 3)
        throw std::logic_error("Conv2D: backward without training forward");
    const std::size_t h = last_input_.shape()[1];
    const std::size_t w = last_input_.shape()[2];
    const std::size_t oh = grad_output.shape()[1];
    const std::size_t ow = grad_output.shape()[2];

    Tensor grad_in({in_channels_, h, w});
    float* gbias = grads_.data() + out_channels_ * in_channels_ * kernel_ * kernel_;
    auto gweight = [&](std::size_t oc, std::size_t ic, std::size_t ky,
                       std::size_t kx) -> float& {
        return grads_[((oc * in_channels_ + ic) * kernel_ + ky) * kernel_ + kx];
    };

    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x) {
                const float go = grad_output.at3(oc, y, x);
                if (go == 0.0f) continue;
                gbias[oc] += go;
                for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                    for (std::size_t ky = 0; ky < kernel_; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(y + ky) -
                            static_cast<std::ptrdiff_t>(pad_);
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
                        for (std::size_t kx = 0; kx < kernel_; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(x + kx) -
                                static_cast<std::ptrdiff_t>(pad_);
                            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                            const auto uy = static_cast<std::size_t>(iy);
                            const auto ux = static_cast<std::size_t>(ix);
                            gweight(oc, ic, ky, kx) += go * last_input_.at3(ic, uy, ux);
                            grad_in.at3(ic, uy, ux) += go * weight(oc, ic, ky, kx);
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

Tensor Conv2D::infer(const Tensor& batch, Workspace& ws,
                     std::size_t num_threads) const {
    if (batch.rank() != 4 || batch.shape()[1] != in_channels_)
        throw std::invalid_argument("Conv2D: expected (N, " +
                                    std::to_string(in_channels_) +
                                    ", H, W) batch, got " +
                                    shape_string(batch.shape()));
    const std::size_t nb = batch.shape()[0];
    const std::size_t h = batch.shape()[2];
    const std::size_t w = batch.shape()[3];
    if (h + 2 * pad_ < kernel_ || w + 2 * pad_ < kernel_)
        throw std::invalid_argument(
            "Conv2D: kernel " + std::to_string(kernel_) + " with pad " +
            std::to_string(pad_) + " exceeds input " + shape_string(batch.shape()));
    const std::size_t oh = h + 2 * pad_ - kernel_ + 1;
    const std::size_t ow = w + 2 * pad_ - kernel_ + 1;
    const std::size_t ckk = in_channels_ * kernel_ * kernel_;
    const std::size_t ohow = oh * ow;

    Tensor out = ws.take({nb, out_channels_, oh, ow});
    const float* weights = params_.data();
    const float* bias = weights + out_channels_ * ckk;
    const float* in = batch.data().data();
    float* outp = out.data().data();

    // The column matrix is a *lane* buffer, not a whole-batch unfold: each
    // lane owns one col slice and reuses it for every sample it processes,
    // so scratch scales with the worker count instead of the batch and the
    // steady state allocates nothing (bench/microbench.cpp asserts this).
    // One im2col + GEMM per sample; parallelism partitions samples into
    // contiguous per-lane ranges, so every output element still has a single
    // k-ascending accumulator (bitwise equal to forward()'s naive loops up
    // to ±0 on padding taps) regardless of the lane count.
    const std::size_t workers =
        num_threads == 0 ? util::hardware_threads() : num_threads;
    const std::size_t lanes = nb == 1 ? 1 : std::min(workers, nb);
    std::vector<float>& col = ws.col(lanes * ckk * ohow);
    float* colp = col.data();

    auto run_sample = [&](std::size_t s, float* col_s) {
        num::im2col(in + s * in_channels_ * h * w, in_channels_, h, w, kernel_, pad_,
                    col_s);
        float* out_s = outp + s * out_channels_ * ohow;
        num::fill_cols(out_channels_, ohow, bias, out_s);
        num::sgemm(out_channels_, ohow, ckk, weights, col_s, out_s, 1);
    };
    if (lanes == 1) {
        for (std::size_t s = 0; s < nb; ++s) run_sample(s, colp);
    } else {
        const std::size_t per_lane = (nb + lanes - 1) / lanes;
        util::parallel_for(
            lanes,
            [&](std::size_t lane) {
                float* col_s = colp + lane * ckk * ohow;
                const std::size_t lo = lane * per_lane;
                const std::size_t hi = std::min(nb, lo + per_lane);
                for (std::size_t s = lo; s < hi; ++s) run_sample(s, col_s);
            },
            lanes);
    }
    count_gemm_flops(2ull * nb * out_channels_ * ohow * ckk);
    return out;
}

void Conv2D::apply_gradients(float lr, float momentum) {
    sgd_momentum(params_, grads_, velocity_, lr, momentum);
}

void Conv2D::zero_gradients() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

// ----------------------------------------------------------------- ReLU ---

Tensor ReLU::forward(const Tensor& input, bool training) {
    if (training) last_input_ = input;
    Tensor out = input;
    for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] < 0.0f) out[i] = 0.0f;
    return out;
}

Tensor ReLU::infer(const Tensor& batch, Workspace& ws,
                   std::size_t num_threads) const {
    (void)num_threads;  // elementwise and memory-bound; threading never pays
    Tensor out = ws.take(batch.shape());
    const std::span<const float> in = batch.data();
    const std::span<float> o = out.data();
    for (std::size_t i = 0; i < in.size(); ++i) o[i] = in[i] < 0.0f ? 0.0f : in[i];
    return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
    if (last_input_.size() != grad_output.size())
        throw std::logic_error("ReLU: backward without matching forward");
    Tensor grad_in = grad_output;
    for (std::size_t i = 0; i < grad_in.size(); ++i)
        if (last_input_[i] <= 0.0f) grad_in[i] = 0.0f;
    return grad_in;
}

// ------------------------------------------------------------- MaxPool2D --

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
    if (input.rank() != 3 || input.shape()[1] % 2 != 0 || input.shape()[2] % 2 != 0)
        throw std::invalid_argument("MaxPool2D: expected (C,H,W) with even H, W");
    const std::size_t c = input.shape()[0];
    const std::size_t oh = input.shape()[1] / 2;
    const std::size_t ow = input.shape()[2] / 2;
    Tensor out({c, oh, ow});
    if (training) {
        in_shape_ = input.shape();
        argmax_.assign(out.size(), 0);
    }
    std::size_t flat = 0;
    for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < ow; ++x, ++flat) {
                float best = -std::numeric_limits<float>::infinity();
                std::size_t best_idx = 0;
                for (std::size_t dy = 0; dy < 2; ++dy) {
                    for (std::size_t dx = 0; dx < 2; ++dx) {
                        const std::size_t iy = 2 * y + dy;
                        const std::size_t ix = 2 * x + dx;
                        const float v = input.at3(ch, iy, ix);
                        if (v > best) {
                            best = v;
                            best_idx =
                                (ch * input.shape()[1] + iy) * input.shape()[2] + ix;
                        }
                    }
                }
                out.at3(ch, y, x) = best;
                if (training) argmax_[flat] = best_idx;
            }
        }
    }
    return out;
}

Tensor MaxPool2D::infer(const Tensor& batch, Workspace& ws,
                        std::size_t num_threads) const {
    if (batch.rank() != 4 || batch.shape()[2] % 2 != 0 || batch.shape()[3] % 2 != 0)
        throw std::invalid_argument(
            "MaxPool2D: expected (N, C, H, W) batch with even H, W, got " +
            shape_string(batch.shape()));
    const std::size_t nb = batch.shape()[0];
    const std::size_t c = batch.shape()[1];
    const std::size_t h = batch.shape()[2];
    const std::size_t w = batch.shape()[3];
    const std::size_t oh = h / 2;
    const std::size_t ow = w / 2;
    Tensor out = ws.take({nb, c, oh, ow});
    const float* in = batch.data().data();
    float* outp = out.data().data();
    for_each_sample(nb, num_threads, [&](std::size_t s) {
        const float* in_s = in + s * c * h * w;
        float* out_s = outp + s * c * oh * ow;
        for (std::size_t ch = 0; ch < c; ++ch) {
            for (std::size_t y = 0; y < oh; ++y) {
                for (std::size_t x = 0; x < ow; ++x) {
                    float best = -std::numeric_limits<float>::infinity();
                    for (std::size_t dy = 0; dy < 2; ++dy)
                        for (std::size_t dx = 0; dx < 2; ++dx) {
                            const float v =
                                in_s[(ch * h + 2 * y + dy) * w + 2 * x + dx];
                            if (v > best) best = v;
                        }
                    out_s[(ch * oh + y) * ow + x] = best;
                }
            }
        }
    });
    return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
    if (in_shape_.empty()) throw std::logic_error("MaxPool2D: backward before forward");
    Tensor grad_in(in_shape_);
    for (std::size_t i = 0; i < grad_output.size(); ++i)
        grad_in[argmax_[i]] += grad_output[i];
    return grad_in;
}

// -------------------------------------------------------------- Flatten ---

Tensor Flatten::forward(const Tensor& input, bool training) {
    if (training) in_shape_ = input.shape();
    return Tensor({input.size()}, {input.data().begin(), input.data().end()});
}

Tensor Flatten::infer(const Tensor& batch, Workspace& ws,
                      std::size_t num_threads) const {
    (void)num_threads;
    if (batch.rank() < 2)
        throw std::invalid_argument("Flatten: expected batch of rank >= 2, got " +
                                    shape_string(batch.shape()));
    const std::size_t nb = batch.shape()[0];
    Tensor out = ws.take({nb, batch.size() / nb});
    std::memcpy(out.data().data(), batch.data().data(),
                batch.size() * sizeof(float));
    return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
    if (in_shape_.empty()) throw std::logic_error("Flatten: backward before forward");
    return Tensor(in_shape_, {grad_output.data().begin(), grad_output.data().end()});
}

// -------------------------------------------------------------- Softmax ---

namespace {

/// In-place numerically stable softmax over `values[0..n)`.
void softmax_row(float* values, std::size_t n) {
    float max_value = values[0];
    for (std::size_t i = 1; i < n; ++i) max_value = std::max(max_value, values[i]);
    float total = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = std::exp(values[i] - max_value);
        total += values[i];
    }
    for (std::size_t i = 0; i < n; ++i) values[i] /= total;
}

}  // namespace

Tensor Softmax::forward(const Tensor& input, bool training) {
    if (input.size() == 0) throw std::invalid_argument("Softmax: empty input");
    Tensor out = input;
    softmax_row(out.data().data(), out.size());
    if (training) last_output_ = out;
    return out;
}

Tensor Softmax::infer(const Tensor& batch, Workspace& ws,
                      std::size_t num_threads) const {
    (void)num_threads;
    if (batch.rank() != 2 || batch.shape()[1] == 0)
        throw std::invalid_argument("Softmax: expected (N, classes) batch, got " +
                                    shape_string(batch.shape()));
    const std::size_t nb = batch.shape()[0];
    const std::size_t classes = batch.shape()[1];
    Tensor out = ws.take(batch.shape());
    std::memcpy(out.data().data(), batch.data().data(),
                batch.size() * sizeof(float));
    float* rows = out.data().data();
    for (std::size_t s = 0; s < nb; ++s) softmax_row(rows + s * classes, classes);
    return out;
}

Tensor Softmax::backward(const Tensor& grad_output) {
    if (last_output_.size() != grad_output.size())
        throw std::logic_error("Softmax: backward without training forward");
    // dL/dx_i = y_i * (g_i - sum_j g_j y_j)
    float dot = 0.0f;
    for (std::size_t i = 0; i < grad_output.size(); ++i)
        dot += grad_output[i] * last_output_[i];
    Tensor grad_in(last_output_.shape());
    for (std::size_t i = 0; i < grad_in.size(); ++i)
        grad_in[i] = last_output_[i] * (grad_output[i] - dot);
    return grad_in;
}

// -------------------------------------------------------- ResidualBlock ---

ResidualBlock::ResidualBlock(std::size_t channels, std::size_t kernel, util::Rng& rng)
    : conv1_(std::make_unique<Conv2D>(channels, channels, kernel, kernel / 2, rng)),
      relu1_(std::make_unique<ReLU>()),
      conv2_(std::make_unique<Conv2D>(channels, channels, kernel, kernel / 2, rng)) {
    if (kernel % 2 == 0)
        throw std::invalid_argument("ResidualBlock: kernel must be odd to preserve size");
    // Fixup-style initialisation: damping the last convolution makes the
    // block start close to the identity, which keeps training stable without
    // batch normalisation.
    std::vector<std::span<float>> spans;
    conv2_->collect_parameters(spans);
    for (auto span : spans)
        for (float& w : span) w *= 0.1f;
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : conv1_(std::make_unique<Conv2D>(*other.conv1_)),
      relu1_(std::make_unique<ReLU>(*other.relu1_)),
      conv2_(std::make_unique<Conv2D>(*other.conv2_)) {}

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
    Tensor y = conv2_->forward(relu1_->forward(conv1_->forward(input, training), training),
                               training);
    if (y.shape() != input.shape())
        throw std::logic_error("ResidualBlock: shape not preserved");
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += input[i];
    for (std::size_t i = 0; i < y.size(); ++i)
        if (y[i] < 0.0f) y[i] = 0.0f;
    if (training) last_out_ = y;
    return y;
}

Tensor ResidualBlock::infer(const Tensor& batch, Workspace& ws,
                            std::size_t num_threads) const {
    Tensor hidden = conv1_->infer(batch, ws, num_threads);
    {
        const std::span<float> h = hidden.data();
        for (std::size_t i = 0; i < h.size(); ++i)
            if (h[i] < 0.0f) h[i] = 0.0f;
    }
    Tensor y = conv2_->infer(hidden, ws, num_threads);
    ws.give(std::move(hidden));
    if (y.shape() != batch.shape())
        throw std::logic_error("ResidualBlock: shape not preserved");
    const std::span<const float> skip = batch.data();
    const std::span<float> out = y.data();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += skip[i];
    for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] < 0.0f) out[i] = 0.0f;
    return y;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
    if (last_out_.size() != grad_output.size())
        throw std::logic_error("ResidualBlock: backward without training forward");
    // Final ReLU gradient uses the post-sum activation we cached.
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i)
        if (last_out_[i] <= 0.0f) grad[i] = 0.0f;
    Tensor through = conv1_->backward(relu1_->backward(conv2_->backward(grad)));
    for (std::size_t i = 0; i < through.size(); ++i) through[i] += grad[i];  // skip path
    return through;
}

void ResidualBlock::apply_gradients(float lr, float momentum) {
    conv1_->apply_gradients(lr, momentum);
    conv2_->apply_gradients(lr, momentum);
}

void ResidualBlock::zero_gradients() {
    conv1_->zero_gradients();
    conv2_->zero_gradients();
}

void ResidualBlock::collect_parameters(std::vector<std::span<float>>& out) {
    conv1_->collect_parameters(out);
    conv2_->collect_parameters(out);
}

}  // namespace mvreju::ml
