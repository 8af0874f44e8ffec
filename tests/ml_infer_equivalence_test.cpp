// Equivalence suite for the batched im2col+GEMM inference engine: the
// stateless infer() path must reproduce the per-sample training-grade
// forward() path (identical argmax on the full signs eval set, logits within
// 1e-5) and be bit-identical across thread counts and batch sizes. Also
// covers the input-shape validation added to the layers, the Softmax layer,
// and the Workspace buffer pool, including its allocation steady state.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "mvreju/data/signs.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/ml/workspace.hpp"

namespace mvreju::ml {
namespace {

/// The full Table II eval workload, rendered once per binary.
const data::SignDataset& signs() {
    static const data::SignDataset dataset = [] {
        data::SignDatasetConfig cfg;
        cfg.train_count = 1;  // the test set is independent of train_count
        return data::make_traffic_signs(cfg);
    }();
    return dataset;
}

std::vector<Sequential> reference_models() {
    std::vector<Sequential> models;
    models.push_back(make_mini_alexnet(3, 16, data::kSignClasses, 38));
    models.push_back(make_micro_resnet(3, 16, data::kSignClasses, 38));
    models.push_back(make_tiny_lenet(3, 16, data::kSignClasses, 38));
    return models;
}

/// The pre-batching seed path: one image at a time through every layer's
/// forward(x, /*training=*/false).
Tensor naive_logits(Sequential& model, const Tensor& image) {
    Tensor x = image;
    for (std::size_t l = 0; l < model.layer_count(); ++l)
        x = model.layer(l).forward(x, /*training=*/false);
    return x;
}

/// Stack equally-shaped images into one (N, ...) batch.
Tensor stack(const std::vector<Tensor>& images) {
    std::vector<std::size_t> shape;
    shape.push_back(images.size());
    for (std::size_t d : images.front().shape()) shape.push_back(d);
    Tensor batch(shape);
    const std::size_t sample = images.front().size();
    for (std::size_t i = 0; i < images.size(); ++i)
        std::memcpy(batch.data().data() + i * sample, images[i].data().data(),
                    sample * sizeof(float));
    return batch;
}

TEST(InferEquivalence, BatchedMatchesPerSampleOnFullEvalSet) {
    const std::vector<Tensor>& images = signs().test.images;
    for (Sequential& model : reference_models()) {
        SCOPED_TRACE(model.name());

        std::vector<int> naive_preds;
        std::vector<float> naive;
        for (const Tensor& img : images) {
            const Tensor logits = naive_logits(model, img);
            naive_preds.push_back(static_cast<int>(argmax(logits)));
            naive.insert(naive.end(), logits.data().begin(), logits.data().end());
        }

        // Identical argmax on every eval image, through the chunked path.
        EXPECT_EQ(model.predict_batch(images, 1), naive_preds);

        // Logits within 1e-5 of the per-sample path on one full-set batch.
        Workspace ws;
        const Tensor logits = model.logits_batch(stack(images), ws, 1);
        ASSERT_EQ(logits.size(), naive.size());
        float max_diff = 0.0f;
        for (std::size_t i = 0; i < naive.size(); ++i)
            max_diff = std::max(max_diff, std::fabs(logits[i] - naive[i]));
        EXPECT_LE(max_diff, 1e-5f);
    }
}

TEST(InferEquivalence, BitIdenticalAcrossThreadCounts) {
    const Tensor batch = stack(signs().test.images);
    for (Sequential& model : reference_models()) {
        SCOPED_TRACE(model.name());
        Workspace ws;
        const Tensor reference = model.logits_batch(batch, ws, 1);
        for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            Tensor logits = model.logits_batch(batch, ws, threads);
            ASSERT_EQ(logits.size(), reference.size());
            EXPECT_EQ(std::memcmp(logits.data().data(), reference.data().data(),
                                  reference.size() * sizeof(float)),
                      0)
                << "threads=" << threads;
            ws.give(std::move(logits));
        }
    }
}

TEST(InferEquivalence, BatchedLogitsBitIdenticalToBatchOne) {
    // Batch size changes which GEMM kernel the Dense layers call (sgemm_nt
    // for small batches, sgemm on a transposed copy for large ones), never
    // the arithmetic of one logit: every row of a full-set batch must
    // memcmp-equal the same sample run alone. The serving layer's
    // label-equals-predict() contract rests on this.
    const std::vector<Tensor>& images = signs().test.images;
    for (Sequential& model : reference_models()) {
        SCOPED_TRACE(model.name());
        Workspace ws;
        const Tensor batched = model.logits_batch(stack(images), ws, 1);
        for (std::size_t i = 0; i < images.size(); ++i) {
            const Tensor alone = model.logits(images[i]);
            ASSERT_EQ(std::memcmp(batched.data().data() + i * alone.size(),
                                  alone.data().data(), alone.size() * sizeof(float)),
                      0)
                << "sample " << i;
        }
    }
}

TEST(InferEquivalence, PredictBatchIndependentOfThreadsAndChunking) {
    const std::vector<Tensor>& images = signs().test.images;  // > one 256-chunk
    Sequential model = make_tiny_lenet(3, 16, data::kSignClasses, 38);
    std::vector<int> per_sample;
    per_sample.reserve(images.size());
    for (const Tensor& img : images) per_sample.push_back(model.predict(img));

    EXPECT_EQ(model.predict_batch(images, 1), per_sample);
    EXPECT_EQ(model.predict_batch(images, 4), per_sample);
    EXPECT_EQ(model.predict_batch(images, 0), per_sample);  // 0 = auto
}

TEST(InferEquivalence, EvaluateMatchesPerSamplePath) {
    const Dataset& test = signs().test;
    Sequential model = make_mini_alexnet(3, 16, data::kSignClasses, 38);

    std::size_t correct = 0;
    std::vector<std::size_t> errors;
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (model.predict(test.images[i]) == test.labels[i]) ++correct;
        else errors.push_back(i);
    }

    const Evaluation serial = model.evaluate(test, 1);
    EXPECT_DOUBLE_EQ(serial.accuracy,
                     static_cast<double>(correct) / static_cast<double>(test.size()));
    EXPECT_EQ(serial.error_set, errors);

    const Evaluation threaded = model.evaluate(test, 8);
    EXPECT_DOUBLE_EQ(threaded.accuracy, serial.accuracy);
    EXPECT_EQ(threaded.error_set, serial.error_set);
}

TEST(InferValidation, DenseRejectsWrongShapes) {
    util::Rng rng(7);
    Dense dense(16, 4, rng);
    Workspace ws;
    EXPECT_THROW((void)dense.forward(Tensor({15}), false), std::invalid_argument);
    EXPECT_NO_THROW((void)dense.forward(Tensor({16}), false));
    EXPECT_NO_THROW((void)dense.forward(Tensor({4, 4}), false));  // 16 elements
    EXPECT_THROW((void)dense.infer(Tensor({16}), ws, 1), std::invalid_argument);
    EXPECT_THROW((void)dense.infer(Tensor({2, 15}), ws, 1), std::invalid_argument);
    EXPECT_NO_THROW((void)dense.infer(Tensor({2, 16}), ws, 1));
}

TEST(InferValidation, Conv2DRejectsWrongShapes) {
    util::Rng rng(7);
    Conv2D conv(3, 4, 3, 1, rng);
    Workspace ws;
    EXPECT_THROW((void)conv.forward(Tensor({4, 8, 8}), false), std::invalid_argument);
    EXPECT_THROW((void)conv.forward(Tensor({3, 8}), false), std::invalid_argument);
    EXPECT_NO_THROW((void)conv.forward(Tensor({3, 8, 8}), false));
    EXPECT_THROW((void)conv.infer(Tensor({3, 8, 8}), ws, 1), std::invalid_argument);
    EXPECT_THROW((void)conv.infer(Tensor({2, 4, 8, 8}), ws, 1), std::invalid_argument);
    EXPECT_NO_THROW((void)conv.infer(Tensor({2, 3, 8, 8}), ws, 1));

    // Kernel larger than the padded input must throw, not wrap around.
    Conv2D big(1, 1, 5, 0, rng);
    EXPECT_THROW((void)big.forward(Tensor({1, 4, 4}), false), std::invalid_argument);
    EXPECT_THROW((void)big.infer(Tensor({1, 1, 4, 4}), ws, 1), std::invalid_argument);
}

TEST(InferValidation, MaxPoolFlattenAndPredictBatchRejectWrongShapes) {
    Workspace ws;
    MaxPool2D pool;
    EXPECT_THROW((void)pool.infer(Tensor({2, 1, 3, 4}), ws, 1), std::invalid_argument);
    EXPECT_THROW((void)pool.infer(Tensor({2, 4, 4}), ws, 1), std::invalid_argument);
    EXPECT_NO_THROW((void)pool.infer(Tensor({2, 1, 4, 4}), ws, 1));

    Flatten flatten;
    EXPECT_THROW((void)flatten.infer(Tensor({8}), ws, 1), std::invalid_argument);

    Sequential model = make_tiny_lenet(3, 16, data::kSignClasses, 38);
    std::vector<Tensor> mixed{Tensor({3, 16, 16}), Tensor({3, 8, 8})};
    EXPECT_THROW((void)model.predict_batch(mixed, 1), std::invalid_argument);
}

TEST(SoftmaxLayer, ForwardInferBackwardAreConsistent) {
    Softmax softmax;
    Workspace ws;
    const Tensor logits({4}, {1.5f, -0.25f, 0.0f, 2.0f});

    // forward: a probability vector preserving the logit ordering.
    Tensor y = softmax.forward(logits, /*training=*/true);
    float sum = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_GT(y[i], 0.0f);
        sum += y[i];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_EQ(argmax(y), argmax(logits));

    // infer: each batch row matches an independent forward pass.
    Tensor batch({2, 4}, {1.5f, -0.25f, 0.0f, 2.0f, -3.0f, 0.5f, 0.5f, 1.0f});
    Tensor rows = softmax.infer(batch, ws, 1);
    ASSERT_EQ(rows.shape(), batch.shape());
    for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(rows[i], y[i]);
    float second_sum = 0.0f;
    for (std::size_t i = 4; i < 8; ++i) second_sum += rows[i];
    EXPECT_NEAR(second_sum, 1.0f, 1e-6f);

    // backward: numeric Jacobian-vector check against the analytic gradient.
    const Tensor upstream({4}, {0.3f, -1.0f, 0.2f, 0.5f});
    const Tensor grad = softmax.backward(upstream);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < 4; ++i) {
        Tensor plus = logits;
        plus[i] += eps;
        Tensor minus = logits;
        minus[i] -= eps;
        Softmax probe;
        const Tensor yp = probe.forward(plus, false);
        const Tensor ym = probe.forward(minus, false);
        double numeric = 0.0;
        for (std::size_t j = 0; j < 4; ++j)
            numeric += static_cast<double>(upstream[j]) * (yp[j] - ym[j]) / (2.0 * eps);
        EXPECT_NEAR(numeric, grad[i], 1e-4);
    }
}

TEST(WorkspaceTest, RecyclesBuffersAcrossShapes) {
    Workspace ws;
    Tensor a = ws.take({64});
    float* storage = a.data().data();
    a[0] = 42.0f;
    ws.give(std::move(a));

    // Same element count, different shape: the pooled buffer is reused.
    Tensor b = ws.take({8, 8});
    EXPECT_EQ(b.data().data(), storage);
    EXPECT_EQ(b.shape(), (std::vector<std::size_t>{8, 8}));
    ws.give(std::move(b));

    const std::size_t grown = ws.bytes();
    EXPECT_GE(grown, 64 * sizeof(float));

    // Scratch buffers are sized on demand and tracked by bytes().
    (void)ws.col(128);
    EXPECT_GE(ws.bytes(), grown + 128 * sizeof(float));
}

TEST(WorkspaceTest, ConvPathReachesAllocationSteadyState) {
    // The guarantee behind the pooled im2col buffer: after a warm-up batch,
    // repeated same-shape inference performs zero heap growth.
    const Sequential model = make_mini_alexnet(3, 16, data::kSignClasses, 38);
    const std::vector<Tensor> subset(signs().test.images.begin(),
                                     signs().test.images.begin() + 32);
    const Tensor batch = stack(subset);
    Workspace ws;
    ws.give(model.logits_batch(batch, ws, 4));  // warm-up sizes the pool
    const std::size_t warm = ws.allocation_count();
    for (int round = 0; round < 5; ++round) ws.give(model.logits_batch(batch, ws, 4));
    EXPECT_EQ(ws.allocation_count(), warm) << "steady-state allocations";
}

}  // namespace
}  // namespace mvreju::ml
