// AVX2+FMA kernel backend. This translation unit is the only one compiled
// with -mavx2 -mfma (see src/num/CMakeLists.txt), so every intrinsic lives
// behind the __AVX2__/__FMA__ guards below; on toolchains without those
// flags the file degrades to the nullptr hook and a pure CPUID probe.
//
// Determinism: the microkernel gives every C element exactly one set of
// accumulators filled in ascending-k order, parallelism partitions row
// blocks only, and the horizontal reductions in sgemm_nt use one fixed
// shuffle tree — so results are bitwise identical for every thread count.
// They are NOT bit-identical to the scalar oracle (FMA contracts the
// multiply-add), which is why this backend is gated on full-eval-set argmax
// equivalence instead of bit equality.

#include <cstddef>

#include "mvreju/num/backend.hpp"

namespace mvreju::num {

bool avx2_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

}  // namespace mvreju::num

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "mvreju/util/parallel.hpp"

namespace mvreju::num {

namespace {

constexpr std::size_t kPanel = 16;  ///< microkernel width: two ymm registers
constexpr std::size_t kRowBlock = 6;  ///< 6 x 2 accumulators + 2 B + 1 A: 15 ymm

/// Pack B (k x n, row-major) into column panels of width kPanel:
/// packed[(jp * k + kk) * kPanel + lane] = B[kk][jp * kPanel + lane],
/// zero-filled past n. The microkernel then streams one contiguous panel
/// per k step — the cache-blocked packing the tiled loop relies on.
void pack_b_panels(std::size_t n, std::size_t k, const float* b, float* packed) {
    const std::size_t panels = (n + kPanel - 1) / kPanel;
    for (std::size_t jp = 0; jp < panels; ++jp) {
        const std::size_t j0 = jp * kPanel;
        const std::size_t width = n - j0 < kPanel ? n - j0 : kPanel;
        float* dst = packed + jp * k * kPanel;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float* src = b + kk * n + j0;
            float* out = dst + kk * kPanel;
            std::size_t lane = 0;
            for (; lane < width; ++lane) out[lane] = src[lane];
            for (; lane < kPanel; ++lane) out[lane] = 0.0f;
        }
    }
}

/// MR x kPanel FMA microkernel over one packed panel (MR ≤ kRowBlock, a
/// compile-time count so the accumulators stay in registers); adds into C
/// through `tail` valid lanes (tail == kPanel for full panels).
template <std::size_t MR>
void microkernel(std::size_t k, const float* a, std::size_t lda, const float* panel,
                 float* c, std::size_t ldc, std::size_t tail) {
    __m256 acc[MR][2];
    for (std::size_t r = 0; r < MR; ++r) {
        acc[r][0] = _mm256_setzero_ps();
        acc[r][1] = _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(panel + kk * kPanel);
        const __m256 b1 = _mm256_loadu_ps(panel + kk * kPanel + 8);
        for (std::size_t r = 0; r < MR; ++r) {
            const __m256 av = _mm256_broadcast_ss(a + r * lda + kk);
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    if (tail == kPanel) {
        for (std::size_t r = 0; r < MR; ++r) {
            float* crow = c + r * ldc;
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
            _mm256_storeu_ps(crow + 8,
                             _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
        }
        return;
    }
    alignas(32) float spill[kPanel];
    for (std::size_t r = 0; r < MR; ++r) {
        _mm256_store_ps(spill, acc[r][0]);
        _mm256_store_ps(spill + 8, acc[r][1]);
        float* crow = c + r * ldc;
        for (std::size_t lane = 0; lane < tail; ++lane) crow[lane] += spill[lane];
    }
}

/// `rows` (≤ kRowBlock) rows against one panel: a full 6-row tile, or 4-,
/// 2- and 1-row tiles for the remainder.
void microkernel_rows(std::size_t rows, std::size_t k, const float* a, std::size_t lda,
                      const float* panel, float* c, std::size_t ldc, std::size_t tail) {
    if (rows == kRowBlock) {
        microkernel<kRowBlock>(k, a, lda, panel, c, ldc, tail);
        return;
    }
    if (rows >= 4) {
        microkernel<4>(k, a, lda, panel, c, ldc, tail);
        a += 4 * lda;
        c += 4 * ldc;
        rows -= 4;
    }
    if (rows >= 2) {
        microkernel<2>(k, a, lda, panel, c, ldc, tail);
        a += 2 * lda;
        c += 2 * ldc;
        rows -= 2;
    }
    if (rows == 1) microkernel<1>(k, a, lda, panel, c, ldc, tail);
}

/// One A row · one B row dot product, 8-wide FMA with a fixed-order
/// horizontal reduction plus a scalar k tail.
float dot_fma(std::size_t k, const float* a, const float* b) {
    __m256 acc = _mm256_setzero_ps();
    std::size_t kk = 0;
    for (; kk + 8 <= k; kk += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + kk), _mm256_loadu_ps(b + kk), acc);
    const __m128 low = _mm256_castps256_ps128(acc);
    const __m128 high = _mm256_extractf128_ps(acc, 1);
    __m128 sum = _mm_add_ps(low, high);
    sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
    sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
    float result = _mm_cvtss_f32(sum);
    for (; kk < k; ++kk) result += a[kk] * b[kk];
    return result;
}

class Avx2Backend final : public KernelBackend {
public:
    [[nodiscard]] std::string_view name() const noexcept override { return "avx2"; }
    [[nodiscard]] bool supported() const noexcept override { return avx2_supported(); }

    void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
               const float* b, float* c, std::size_t num_threads) const override {
        if (m == 0 || n == 0) return;
        if (k == 0) return;
        const std::size_t panels = (n + kPanel - 1) / kPanel;
        // Packed once on the calling thread; workers read through the
        // pointer. thread_local keeps the buffer amortised without racing
        // concurrent sgemm calls from other threads.
        thread_local std::vector<float> tl_packed;
        tl_packed.resize(panels * k * kPanel);
        pack_b_panels(n, k, b, tl_packed.data());
        const float* packed = tl_packed.data();

        // Rows [i0, i1) against every panel, panel-outer: a packed panel is
        // reused from L1 by every row block in the range.
        auto run_rows = [&](std::size_t i0, std::size_t i1) {
            for (std::size_t jp = 0; jp < panels; ++jp) {
                const std::size_t j0 = jp * kPanel;
                const std::size_t tail = n - j0 < kPanel ? n - j0 : kPanel;
                for (std::size_t i = i0; i < i1; i += kRowBlock)
                    microkernel_rows(std::min(kRowBlock, i1 - i), k, a + i * k, k,
                                     packed + jp * k * kPanel, c + i * n + j0, n, tail);
            }
        };
        const std::size_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
        if (num_threads == 1 || row_blocks == 1) {
            run_rows(0, m);
            return;
        }
        util::parallel_for(
            row_blocks,
            [&](std::size_t blk) {
                const std::size_t i0 = blk * kRowBlock;
                run_rows(i0, std::min(m, i0 + kRowBlock));
            },
            num_threads);
    }

    void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  const float* b, float* c, std::size_t num_threads) const override {
        if (m == 0 || n == 0) return;
        auto run_row = [&](std::size_t i) {
            const float* arow = a + i * k;
            float* crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += dot_fma(k, arow, b + j * k);
        };
        if (num_threads == 1 || m == 1) {
            for (std::size_t i = 0; i < m; ++i) run_row(i);
            return;
        }
        util::parallel_for(m, run_row, num_threads);
    }
};

const Avx2Backend g_avx2;

}  // namespace

const KernelBackend* avx2_backend_or_null() noexcept { return &g_avx2; }

}  // namespace mvreju::num

#else  // !(__AVX2__ && __FMA__)

namespace mvreju::num {

const KernelBackend* avx2_backend_or_null() noexcept { return nullptr; }

}  // namespace mvreju::num

#endif
