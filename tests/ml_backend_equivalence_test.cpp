// Gate suite for the kernel-backend registry (ROADMAP item 2): every
// non-scalar backend must earn its place against the scalar oracle on the
// full Table II eval workload before the serving layer may dispatch to it.
//
//  - "avx2": argmax-identical to scalar on every eval image (the FMA tiling
//    reorders float summation, so logits may drift in the last ulps, but a
//    prediction flip would be a silent diversity violation).
//  - select_backend(): unknown names throw, compiled-but-unsupported avx2
//    falls back to scalar with a warning instead of crashing.
//  - binding: a model bound to a backend at load time runs every inference
//    entry point through it, and copies inherit the binding.
//  - determinism: each backend is bit-identical to itself across thread
//    counts and under an 8-thread shared-model hammer (TSan job runs this).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mvreju/data/signs.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/ml/workspace.hpp"
#include "mvreju/num/backend.hpp"
#include "mvreju/num/gemm.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/obs.hpp"
#include "mvreju/util/rng.hpp"

namespace mvreju::ml {
namespace {

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

/// A copy of `model` bound to `kb`: the same weights run through another
/// backend.
Sequential bound_to(const Sequential& model, const num::KernelBackend& kb) {
    Sequential copy = model;
    copy.bind_backend(&kb);
    return copy;
}

/// Full-eval-set logits for `model` through backend `kb`.
Tensor eval_logits(const Sequential& model, const num::KernelBackend& kb) {
    Workspace ws;
    return bound_to(model, kb).logits_batch(stack(signs().test.images), ws, 1);
}

/// Current value of the process-global counter `name` (0 when unregistered).
std::uint64_t counter_value(const std::string& name) {
    for (const obs::CounterValue& c : obs::metrics().snapshot().counters)
        if (c.name == name) return c.value;
    return 0;
}

/// Argmax per row of a (n, classes) logits tensor.
std::vector<int> row_argmax(const Tensor& logits, std::size_t classes) {
    std::vector<int> preds;
    for (std::size_t r = 0; r < logits.size() / classes; ++r) {
        const float* row = logits.data().data() + r * classes;
        int best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (row[c] > row[best]) best = static_cast<int>(c);
        preds.push_back(best);
    }
    return preds;
}

TEST(BackendRegistry, ScalarIsAlwaysPresentAndFirst) {
    const auto& all = num::backends();
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(all[0], &num::scalar_backend());
    EXPECT_EQ(num::scalar_backend().name(), "scalar");
    EXPECT_TRUE(num::scalar_backend().bit_exact());
    EXPECT_TRUE(num::scalar_backend().supported());
    EXPECT_EQ(num::backend_index(num::scalar_backend()), 0u);
}

TEST(BackendRegistry, SelectBackendResolvesAndThrows) {
    EXPECT_EQ(&num::select_backend(), &num::scalar_backend());
    EXPECT_EQ(&num::select_backend("scalar"), &num::scalar_backend());
    EXPECT_THROW((void)num::select_backend("int8"), std::invalid_argument);
    EXPECT_THROW((void)num::select_backend("cuda"), std::invalid_argument);
    EXPECT_THROW((void)num::select_backend("AVX2"), std::invalid_argument);
}

TEST(BackendRegistry, Avx2RequestNeverCrashes) {
    // Compiled in + supported host: resolves to avx2. Compiled in but
    // unsupported host, or not compiled in at all: logged fallback to
    // scalar. All three cases must resolve — never throw, never crash.
    const num::KernelBackend& kb = num::select_backend("avx2");
    if (num::find_backend("avx2") != nullptr && num::avx2_supported())
        EXPECT_EQ(kb.name(), "avx2");
    else
        EXPECT_EQ(&kb, &num::scalar_backend());
}

TEST(BackendRegistry, UnsupportedBackendsAreNeverDispatchable) {
    for (const num::KernelBackend* kb : num::backends()) {
        if (kb->supported()) continue;
        EXPECT_EQ(&num::select_backend(kb->name()), &num::scalar_backend());
    }
}

/// Raw-kernel oracle check: C += A·B (and A·Bᵀ) against the scalar kernels
/// on awkward shapes (panel tails, k tails, m tails for the tiled kernel).
TEST(BackendKernels, GemmMatchesScalarOracleOnAwkwardShapes) {
    util::Rng rng(99);
    const struct { std::size_t m, n, k; } shapes[] = {
        {1, 1, 1}, {3, 17, 5}, {4, 16, 32}, {5, 33, 7}, {64, 100, 27}, {7, 8, 128},
    };
    for (const num::KernelBackend* kb : num::backends()) {
        if (kb == &num::scalar_backend() || !kb->supported()) continue;
        SCOPED_TRACE(std::string(kb->name()));
        for (const auto& s : shapes) {
            std::vector<float> a(s.m * s.k), b(s.k * s.n), bt(s.n * s.k);
            for (float& v : a) v = rng.uniform(-1.0f, 1.0f);
            for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
            for (std::size_t i = 0; i < s.n; ++i)
                for (std::size_t j = 0; j < s.k; ++j) bt[i * s.k + j] = b[j * s.n + i];
            const float tol = 1e-4f;

            std::vector<float> want(s.m * s.n, 0.5f), got(s.m * s.n, 0.5f);
            num::sgemm(s.m, s.n, s.k, a.data(), b.data(), want.data(), 1);
            kb->sgemm(s.m, s.n, s.k, a.data(), b.data(), got.data(), 1);
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_NEAR(got[i], want[i], tol)
                    << "sgemm " << s.m << "x" << s.n << "x" << s.k << " elem " << i;

            std::vector<float> want_nt(s.m * s.n, -0.25f), got_nt(s.m * s.n, -0.25f);
            num::sgemm_nt(s.m, s.n, s.k, a.data(), bt.data(), want_nt.data(), 1);
            kb->sgemm_nt(s.m, s.n, s.k, a.data(), bt.data(), got_nt.data(), 1);
            for (std::size_t i = 0; i < want_nt.size(); ++i)
                ASSERT_NEAR(got_nt[i], want_nt[i], tol)
                    << "sgemm_nt " << s.m << "x" << s.n << "x" << s.k << " elem " << i;
        }
    }
}

TEST(BackendEquivalence, Avx2ArgmaxIdenticalOnFullEvalSet) {
    const num::KernelBackend* avx2 = num::find_backend("avx2");
    if (avx2 == nullptr || !avx2->supported())
        GTEST_SKIP() << "avx2 backend not available on this host";
    for (Sequential& model : reference_models()) {
        SCOPED_TRACE(model.name());
        const Tensor scalar = eval_logits(model, num::scalar_backend());
        const Tensor vec = eval_logits(model, *avx2);
        ASSERT_EQ(vec.size(), scalar.size());
        EXPECT_EQ(row_argmax(vec, data::kSignClasses),
                  row_argmax(scalar, data::kSignClasses));
    }
}

TEST(BackendEquivalence, EachBackendBitIdenticalAcrossThreadCounts) {
    const Tensor batch = stack(signs().test.images);
    Sequential model = make_mini_alexnet(3, 16, data::kSignClasses, 38);
    for (const num::KernelBackend* kb : num::backends()) {
        if (!kb->supported()) continue;
        SCOPED_TRACE(std::string(kb->name()));
        const Sequential bound = bound_to(model, *kb);
        Workspace ws;
        const Tensor reference = bound.logits_batch(batch, ws, 1);
        for (std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
            Tensor logits = bound.logits_batch(batch, ws, threads);
            ASSERT_EQ(logits.size(), reference.size());
            EXPECT_EQ(std::memcmp(logits.data().data(), reference.data().data(),
                                  reference.size() * sizeof(float)),
                      0)
                << "threads=" << threads;
            ws.give(std::move(logits));
        }
    }
}

TEST(BackendEquivalence, BoundBackendFlowsThroughPredictPaths) {
    // A model bound at load time dispatches every public inference path
    // (predict, predict_batch, logits_batch) through its backend: each call
    // is one dispatch on the backend's ml.backend.dispatches counter.
    const num::KernelBackend* avx2 = num::find_backend("avx2");
    if (avx2 == nullptr || !avx2->supported())
        GTEST_SKIP() << "avx2 backend not available on this host";
    Sequential bound = make_tiny_lenet(3, 16, data::kSignClasses, 38);
    bound.bind_backend(avx2);
    EXPECT_EQ(&bound.backend(), avx2);

    const Sequential pristine = make_tiny_lenet(3, 16, data::kSignClasses, 38);
    const std::vector<Tensor> subset(signs().test.images.begin(),
                                     signs().test.images.begin() + 64);
    const std::uint64_t before = counter_value("ml.backend.dispatches.avx2");
    const std::vector<int> batched = bound.predict_batch(subset, 1);  // 1 chunk
    for (std::size_t i : {std::size_t{0}, std::size_t{42}}) {
        EXPECT_EQ(bound.predict(subset[i]), pristine.predict(subset[i]));
        EXPECT_EQ(batched[i], pristine.predict(subset[i]));
    }
    Workspace ws;
    ws.give(bound.logits_batch(stack(subset), ws, 1));
    if (obs::enabled()) {
        EXPECT_EQ(counter_value("ml.backend.dispatches.avx2"), before + 4);
    }

    // Copies inherit the binding (the serving layer's twin-pool relies on it).
    const Sequential copy = bound;
    EXPECT_EQ(&copy.backend(), avx2);
}

TEST(BackendHammer, SharedModelEightThreadsPerBackend) {
    // One const model shared by 8 threads per backend: inference must be
    // data-race free (the TSan CI job runs this case) and every thread must
    // see bit-identical logits.
    const std::vector<Tensor>& images = signs().test.images;
    std::vector<Tensor> subset(images.begin(), images.begin() + 64);
    const Tensor batch = stack(subset);
    Sequential model = make_micro_resnet(3, 16, data::kSignClasses, 38);

    for (const num::KernelBackend* kb : num::backends()) {
        if (!kb->supported()) continue;
        SCOPED_TRACE(std::string(kb->name()));
        const Sequential bound = bound_to(model, *kb);
        Workspace ws;
        const Tensor reference = bound.logits_batch(batch, ws, 1);

        std::atomic<int> mismatches{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < 8; ++t) {
            threads.emplace_back([&, t] {
                Workspace local;
                for (int round = 0; round < 3; ++round) {
                    const Tensor logits =
                        bound.logits_batch(batch, local, 1 + (t % 3));
                    if (logits.size() != reference.size() ||
                        std::memcmp(logits.data().data(), reference.data().data(),
                                    reference.size() * sizeof(float)) != 0)
                        mismatches.fetch_add(1, std::memory_order_relaxed);
                }
            });
        }
        for (std::thread& t : threads) t.join();
        EXPECT_EQ(mismatches.load(), 0);
    }
}

TEST(BackendWorkspace, ConvPathReachesAllocationSteadyState) {
    // Satellite guarantee behind the pooled im2col buffer: after a warm-up
    // batch, repeated same-shape inference performs zero heap growth.
    Sequential model = make_mini_alexnet(3, 16, data::kSignClasses, 38);
    std::vector<Tensor> subset(signs().test.images.begin(),
                               signs().test.images.begin() + 32);
    const Tensor batch = stack(subset);
    for (const num::KernelBackend* kb : num::backends()) {
        if (!kb->supported()) continue;
        SCOPED_TRACE(std::string(kb->name()));
        const Sequential bound = bound_to(model, *kb);
        Workspace ws;
        ws.give(bound.logits_batch(batch, ws, 4));  // warm-up sizes the pool
        const std::size_t warm = ws.allocation_count();
        for (int round = 0; round < 5; ++round)
            ws.give(bound.logits_batch(batch, ws, 4));
        EXPECT_EQ(ws.allocation_count(), warm) << "steady-state allocations";
    }
}

}  // namespace
}  // namespace mvreju::ml
