// Bit-exactness suite for the scalar GEMM kernels (num::sgemm / sgemm_nt).
// gemm.hpp promises that every C element is one accumulator seeded with its
// initial value and summed in ascending k order, as a multiply followed by
// an add — i.e. exactly what the naive triple loop below computes. The
// register-tiled kernels must reproduce it bit for bit: on every small shape
// (so every full tile and every row/column edge tile is hit), on every shape
// the shipped models run, with signed zeros and infinities in the operands,
// and at 1, 2 and 4 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mvreju/num/gemm.hpp"
#include "mvreju/util/rng.hpp"

namespace {

using namespace mvreju;

enum class Fill {
    random,        ///< uniform in [-1, 1]
    signed_zeros,  ///< +0, -0 and a few small values: exercises zero signs
    infinities,    ///< ±Inf, zeros and finite values: Inf - Inf, 0 * Inf
};

float draw(util::Rng& rng, Fill fill) {
    constexpr float inf = std::numeric_limits<float>::infinity();
    static constexpr float zeros[] = {0.0f, -0.0f, 0.0f, -0.0f, 1.0f, -0.5f};
    static constexpr float specials[] = {inf, -inf, 0.0f, -0.0f, 1.0f, -2.0f, 0.25f};
    switch (fill) {
        case Fill::signed_zeros:
            return zeros[rng.uniform_int(std::size(zeros))];
        case Fill::infinities:
            // Mostly finite, so many outputs stay finite and the rest mix
            // ±Inf with NaN.
            if (rng.uniform() < 0.9) return static_cast<float>(rng.uniform(-1.0, 1.0));
            return specials[rng.uniform_int(std::size(specials))];
        case Fill::random:
            break;
    }
    return static_cast<float>(rng.uniform(-1.0, 1.0));
}

/// Same bits, or both NaN (a NaN's payload and sign are not part of the
/// contract).
bool same_value(float x, float y) {
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::memcmp(&x, &y, sizeof x) == 0;
}

/// The contract, literally: C[i][j] += A[i][kk] * B[kk][j] for kk ascending,
/// one accumulator per element.
void naive_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c) {
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
            c[i * n + j] = acc;
        }
}

/// Same with B stored transposed (n x k).
void naive_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* bt, float* c) {
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * bt[j * k + kk];
            c[i * n + j] = acc;
        }
}

/// First element where `got` differs from `want`, as a message; empty when
/// they agree everywhere.
std::string first_mismatch(const std::vector<float>& want, const std::vector<float>& got,
                           std::size_t n) {
    for (std::size_t e = 0; e < want.size(); ++e) {
        if (same_value(want[e], got[e])) continue;
        std::ostringstream out;
        out.precision(9);
        out << "C[" << e / n << "][" << e % n << "] = " << got[e] << ", naive loop "
            << want[e];
        return out.str();
    }
    return {};
}

/// Run both kernels on one random (m, n, k) problem with a non-zero initial
/// C at each thread count and compare against the naive loops.
void expect_bit_exact(std::size_t m, std::size_t n, std::size_t k, Fill fill,
                      std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<float> a(m * k), b(k * n), bt(n * k), c0(m * n);
    for (float& v : a) v = draw(rng, fill);
    for (float& v : b) v = draw(rng, fill);
    for (float& v : c0) v = draw(rng, fill);
    for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j) bt[j * k + kk] = b[kk * n + j];

    std::vector<float> want_nn = c0, want_nt = c0;
    naive_nn(m, n, k, a.data(), b.data(), want_nn.data());
    naive_nt(m, n, k, a.data(), bt.data(), want_nt.data());

    for (const std::size_t threads : {1u, 2u, 4u}) {
        std::vector<float> got = c0;
        num::sgemm(m, n, k, a.data(), b.data(), got.data(), threads);
        const std::string nn = first_mismatch(want_nn, got, n);
        got = c0;
        num::sgemm_nt(m, n, k, a.data(), bt.data(), got.data(), threads);
        const std::string nt = first_mismatch(want_nt, got, n);
        ASSERT_TRUE(nn.empty() && nt.empty())
            << m << "x" << n << "x" << k << " at " << threads << " threads: "
            << (nn.empty() ? "" : "sgemm " + nn + " ")
            << (nt.empty() ? "" : "sgemm_nt " + nt);
    }
}

/// Every m, n, k in 1..13: covers the 4-, 2- and 1-row tiles and the 8-, 4-
/// and 1-column tiles in every combination, and k from one step upwards.
void sweep_small_shapes(Fill fill) {
    std::uint64_t seed = 1;
    for (std::size_t m = 1; m <= 13; ++m)
        for (std::size_t n = 1; n <= 13; ++n)
            for (std::size_t k = 1; k <= 13; ++k) {
                expect_bit_exact(m, n, k, fill, seed++);
                if (::testing::Test::HasFatalFailure()) return;
            }
}

TEST(NumGemmTest, SmallShapesMatchNaiveLoop) { sweep_small_shapes(Fill::random); }

TEST(NumGemmTest, SignedZerosKeepTheirSign) { sweep_small_shapes(Fill::signed_zeros); }

TEST(NumGemmTest, InfinitiesAndNaNsLandWhereTheNaiveLoopPutsThem) {
    sweep_small_shapes(Fill::infinities);
}

TEST(NumGemmTest, EmptyProductsLeaveCUntouched) {
    std::vector<float> c{1.0f, -0.0f, 3.0f, 4.0f};
    const std::vector<float> before = c;
    const float a[4] = {1, 2, 3, 4};
    num::sgemm(2, 2, 0, a, a, c.data(), 1);
    num::sgemm_nt(2, 2, 0, a, a, c.data(), 2);
    num::sgemm(0, 2, 2, a, a, c.data(), 1);
    num::sgemm_nt(2, 0, 2, a, a, c.data(), 1);
    EXPECT_EQ(std::memcmp(c.data(), before.data(), c.size() * sizeof(float)), 0);
}

/// Every GEMM the six shipped models run, as (m, n, k). Conv2D::infer runs
/// sgemm(out_channels, oh * ow, in_channels * 9) per sample; Dense::infer
/// runs (batch, outputs, inputs) through sgemm_nt at batch < 8 and through
/// sgemm on transposed weights from batch 8 up.
struct Shape {
    std::size_t m, n, k;
};

constexpr Shape kConvShapes[] = {
    // av detectors S/M/L: 2 channels on the 12 x 12 grid
    {6, 144, 18}, {12, 36, 54}, {8, 144, 18}, {8, 144, 72}, {8, 36, 72},
    // serve TinyLeNet / MiniAlexNet / MicroResNet: 3 x 16 x 16 images
    {6, 256, 27}, {12, 64, 54}, {10, 256, 27}, {16, 64, 90}, {16, 64, 144},
    {12, 256, 27}, {12, 64, 108}, {12, 16, 108},
};

/// Dense layers as (outputs, inputs).
constexpr std::pair<std::size_t, std::size_t> kDenseLayers[] = {
    {32, 108}, {48, 288}, {40, 288}, {8, 32}, {8, 48}, {8, 40},  // av
    {48, 192}, {64, 256}, {8, 64},                               // serve
};

TEST(NumGemmTest, ModelShapesMatchNaiveLoop) {
    std::uint64_t seed = 100;
    for (const Shape& s : kConvShapes) {
        expect_bit_exact(s.m, s.n, s.k, Fill::random, seed++);
        if (HasFatalFailure()) return;
    }
    for (const auto& [outputs, inputs] : kDenseLayers)
        for (const std::size_t batch : {1u, 3u, 7u, 8u, 56u}) {
            expect_bit_exact(batch, outputs, inputs, Fill::random, seed++);
            if (HasFatalFailure()) return;
        }
}

}  // namespace
