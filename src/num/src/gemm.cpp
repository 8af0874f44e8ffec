#include "mvreju/num/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "mvreju/util/parallel.hpp"

namespace mvreju::num {

namespace {

/// Four float lanes in one SSE register (GCC vector extension). Lane-wise
/// `*` and `+` are the plain IEEE single-precision operations, so a lane
/// computes exactly what the scalar expression would.
using f32x4 = float __attribute__((vector_size(16)));

inline f32x4 load4(const float* p) {
    f32x4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store4(float* p, f32x4 v) { std::memcpy(p, &v, sizeof v); }

inline f32x4 splat(float x) { return f32x4{x, x, x, x}; }

/// Rows per block: the unit both kernels tile and parallelise over.
constexpr std::size_t kRowBlock = 4;

/// MR rows of the NN product, C[0..MR) += A[0..MR) · B: an MR x 8 C tile
/// stays in registers for the whole k loop (two B vectors loaded and one A
/// value broadcast per row per k step), then a 4-column tile, then scalar
/// columns for n % 4.
template <std::size_t MR>
void nn_rows(std::size_t n, std::size_t k, const float* a, const float* b, float* c) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        f32x4 lo[MR], hi[MR];
        for (std::size_t r = 0; r < MR; ++r) {
            lo[r] = load4(c + r * n + j);
            hi[r] = load4(c + r * n + j + 4);
        }
        const float* brow = b + j;
        for (std::size_t kk = 0; kk < k; ++kk, brow += n) {
            const f32x4 b0 = load4(brow);
            const f32x4 b1 = load4(brow + 4);
            for (std::size_t r = 0; r < MR; ++r) {
                const f32x4 av = splat(a[r * k + kk]);
                lo[r] += av * b0;
                hi[r] += av * b1;
            }
        }
        for (std::size_t r = 0; r < MR; ++r) {
            store4(c + r * n + j, lo[r]);
            store4(c + r * n + j + 4, hi[r]);
        }
    }
    if (j + 4 <= n) {
        f32x4 acc[MR];
        for (std::size_t r = 0; r < MR; ++r) acc[r] = load4(c + r * n + j);
        const float* brow = b + j;
        for (std::size_t kk = 0; kk < k; ++kk, brow += n) {
            const f32x4 bv = load4(brow);
            for (std::size_t r = 0; r < MR; ++r) acc[r] += splat(a[r * k + kk]) * bv;
        }
        for (std::size_t r = 0; r < MR; ++r) store4(c + r * n + j, acc[r]);
        j += 4;
    }
    for (; j < n; ++j) {
        for (std::size_t r = 0; r < MR; ++r) {
            float acc = c[r * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) acc += a[r * k + kk] * b[kk * n + j];
            c[r * n + j] = acc;
        }
    }
}

/// In-register 4 x 4 transpose: afterwards v_t[r] holds what v_r[t] held.
inline void transpose4(f32x4& v0, f32x4& v1, f32x4& v2, f32x4& v3) {
    using mask = int __attribute__((vector_size(16)));
    const f32x4 t0 = __builtin_shuffle(v0, v1, mask{0, 4, 1, 5});
    const f32x4 t1 = __builtin_shuffle(v0, v1, mask{2, 6, 3, 7});
    const f32x4 t2 = __builtin_shuffle(v2, v3, mask{0, 4, 1, 5});
    const f32x4 t3 = __builtin_shuffle(v2, v3, mask{2, 6, 3, 7});
    v0 = __builtin_shuffle(t0, t2, mask{0, 1, 4, 5});
    v1 = __builtin_shuffle(t0, t2, mask{2, 3, 6, 7});
    v2 = __builtin_shuffle(t1, t3, mask{0, 1, 4, 5});
    v3 = __builtin_shuffle(t1, t3, mask{2, 3, 6, 7});
}

/// MR rows of the NT product, C[0..MR) += A[0..MR) · Bᵀ, four outputs per
/// vector so the four dot products run as independent lanes. Every four k
/// steps the products A[r][kk+t] * B[j+o][kk+t] are formed along k (one
/// vector per output o) and transposed so that vector t holds step kk+t of
/// all four outputs; adding those in t order keeps each lane's k order.
/// The k % 4 tail gathers B[j..j+3][kk] one step at a time.
template <std::size_t MR>
void nt_rows(std::size_t n, std::size_t k, const float* a, const float* b, float* c) {
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        f32x4 acc[MR];
        for (std::size_t r = 0; r < MR; ++r) acc[r] = load4(c + r * n + j);
        const float* w0 = b + j * k;
        const float* w1 = w0 + k;
        const float* w2 = w1 + k;
        const float* w3 = w2 + k;
        std::size_t kk = 0;
        for (; kk + 4 <= k; kk += 4) {
            const f32x4 x0 = load4(w0 + kk);
            const f32x4 x1 = load4(w1 + kk);
            const f32x4 x2 = load4(w2 + kk);
            const f32x4 x3 = load4(w3 + kk);
            for (std::size_t r = 0; r < MR; ++r) {
                const f32x4 av = load4(a + r * k + kk);
                f32x4 p0 = av * x0, p1 = av * x1, p2 = av * x2, p3 = av * x3;
                transpose4(p0, p1, p2, p3);
                acc[r] += p0;
                acc[r] += p1;
                acc[r] += p2;
                acc[r] += p3;
            }
        }
        for (; kk < k; ++kk) {
            const f32x4 wv = {w0[kk], w1[kk], w2[kk], w3[kk]};
            for (std::size_t r = 0; r < MR; ++r) acc[r] += splat(a[r * k + kk]) * wv;
        }
        for (std::size_t r = 0; r < MR; ++r) store4(c + r * n + j, acc[r]);
    }
    for (; j < n; ++j) {
        const float* w = b + j * k;
        for (std::size_t r = 0; r < MR; ++r) {
            float acc = c[r * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) acc += a[r * k + kk] * w[kk];
            c[r * n + j] = acc;
        }
    }
}

/// Run block(i0, rows) over the row blocks of an m-row product, serially or
/// one block per parallel_for index. Blocks own disjoint C rows, so the
/// split never touches a reduction.
template <typename Block>
void for_row_blocks(std::size_t m, std::size_t num_threads, const Block& block) {
    const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
    auto run = [&](std::size_t blk) {
        const std::size_t i0 = blk * kRowBlock;
        block(i0, std::min(kRowBlock, m - i0));
    };
    if (num_threads == 1 || blocks == 1) {
        for (std::size_t blk = 0; blk < blocks; ++blk) run(blk);
        return;
    }
    util::parallel_for(blocks, run, num_threads);
}

}  // namespace

void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
           float* c, std::size_t num_threads) {
    if (m == 0 || n == 0) return;
    for_row_blocks(m, num_threads, [&](std::size_t i0, std::size_t rows) {
        const float* ai = a + i0 * k;
        float* ci = c + i0 * n;
        if (rows == 4) {
            nn_rows<4>(n, k, ai, b, ci);
            return;
        }
        if (rows >= 2) {
            nn_rows<2>(n, k, ai, b, ci);
            ai += 2 * k;
            ci += 2 * n;
        }
        if (rows % 2 == 1) nn_rows<1>(n, k, ai, b, ci);
    });
}

void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c, std::size_t num_threads) {
    if (m == 0 || n == 0) return;
    for_row_blocks(m, num_threads, [&](std::size_t i0, std::size_t rows) {
        const float* ai = a + i0 * k;
        float* ci = c + i0 * n;
        if (rows == 4) {
            nt_rows<4>(n, k, ai, b, ci);
            return;
        }
        for (std::size_t r = 0; r < rows; ++r) nt_rows<1>(n, k, ai + r * k, b, ci + r * n);
    });
}

void fill_rows(std::size_t m, std::size_t n, const float* values, float* c) {
    if (values == nullptr) {
        std::memset(c, 0, m * n * sizeof(float));
        return;
    }
    for (std::size_t i = 0; i < m; ++i)
        std::memcpy(c + i * n, values, n * sizeof(float));
}

void fill_cols(std::size_t m, std::size_t n, const float* values, float* c) {
    if (values == nullptr) {
        std::memset(c, 0, m * n * sizeof(float));
        return;
    }
    for (std::size_t i = 0; i < m; ++i) {
        float* crow = c + i * n;
        const float v = values[i];
        for (std::size_t j = 0; j < n; ++j) crow[j] = v;
    }
}

void transpose(std::size_t n, std::size_t k, const float* a, float* b) {
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t kk = 0; kk < k; ++kk) b[kk * n + i] = a[i * k + kk];
}

void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad, float* col) {
    const std::size_t oh = height + 2 * pad - kernel + 1;
    const std::size_t ow = width + 2 * pad - kernel + 1;
    for (std::size_t ic = 0; ic < channels; ++ic) {
        for (std::size_t ky = 0; ky < kernel; ++ky) {
            for (std::size_t kx = 0; kx < kernel; ++kx) {
                float* dst = col + ((ic * kernel + ky) * kernel + kx) * oh * ow;
                const std::ptrdiff_t shift =
                    static_cast<std::ptrdiff_t>(kx) - static_cast<std::ptrdiff_t>(pad);
                // Valid output-x range where ix = x + shift stays in-image;
                // everything outside is a zero tap (stride 1 keeps the valid
                // middle contiguous, so it is one memcpy per row).
                const std::size_t x_lo =
                    shift < 0 ? static_cast<std::size_t>(-shift) : 0;
                const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(width) - shift;
                const std::size_t x_hi =
                    hi <= 0 ? x_lo
                            : std::max(x_lo, std::min(ow, static_cast<std::size_t>(hi)));
                for (std::size_t y = 0; y < oh; ++y) {
                    float* drow = dst + y * ow;
                    const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(y + ky) -
                                              static_cast<std::ptrdiff_t>(pad);
                    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) {
                        std::memset(drow, 0, ow * sizeof(float));
                        continue;
                    }
                    const float* srow =
                        image + (ic * height + static_cast<std::size_t>(iy)) * width;
                    if (x_lo > 0) std::memset(drow, 0, x_lo * sizeof(float));
                    if (x_hi > x_lo)
                        std::memcpy(drow + x_lo, srow + x_lo + shift,
                                    (x_hi - x_lo) * sizeof(float));
                    if (x_hi < ow)
                        std::memset(drow + x_hi, 0, (ow - x_hi) * sizeof(float));
                }
            }
        }
    }
}

}  // namespace mvreju::num
