#pragma once

// Single-precision GEMM + im2col kernel pair backing the batched ML
// inference engine (src/ml): the one inference kernel, called directly by
// the layers. Design rules every caller relies on:
//
//  - Reproducibility: each output element C[i][j] is produced by exactly one
//    task with a single accumulator, seeded with its initial value and
//    summed in strictly ascending k order as a multiply followed by an add.
//    Results are therefore bitwise identical for every thread count — and
//    bitwise identical to a naive `for k: acc += a*b` loop over the same
//    operands. Parallelism only partitions C into blocks of 4 rows; it never
//    splits a reduction.
//  - Tiling: both kernels are register-tiled with GCC vector extensions (4
//    float lanes, SSE on x86-64). One lane is one C element's accumulator,
//    and lane-wise `*` and `+` are the same IEEE operations as the scalar
//    ones, so a tile only changes which elements are in flight together,
//    never the arithmetic of any one element. This holds when gemm.cpp (and
//    any naive loop it is compared with) is compiled with
//    -ffp-contract=off, which src/num/CMakeLists.txt sets for that file:
//    with GCC's default -ffp-contract=fast, a -march with FMA would fuse
//    some multiply-adds into FMAs and leave others alone.
//  - Layout: all matrices are dense row-major float. The kernels accumulate
//    into C (`C += A·B`), so the caller seeds C with zeros or a broadcast
//    bias via fill_rows()/fill_cols() first.
//  - Threads follow util::parallel_for conventions: 0 = auto
//    (hardware_threads() / MVREJU_THREADS), 1 = serial inline.

#include <cstddef>

namespace mvreju::num {

/// C (m x n) += A (m x k) · B (k x n), row-major.
/// A 4 x 8 C tile stays in registers for the whole k loop: each k step loads
/// two B vectors and broadcasts one A value per row. 2-row and 1-row tiles
/// take m % 4, a 4-column tile and scalar columns take n % 8.
void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
           const float* b, float* c, std::size_t num_threads = 1);

/// C (m x n) += A (m x k) · Bᵀ where B is (n x k) row-major — dot products
/// of A rows against B rows. Same determinism contract as sgemm; preferred
/// when B is a weight matrix stored (outputs x inputs) and m is too small
/// for a transposed copy to pay off. Four outputs share a vector over 4-row
/// and 1-row blocks, so their dot products run as independent lanes: every
/// four k steps the products with four B rows are formed along k and
/// transposed in registers, so each lane adds its own output's products in
/// k order; k % 4 gathers B[j..j+3][kk] one step at a time.
void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c, std::size_t num_threads = 1);

/// Every row of C (m x n) := the n-vector `values` (bias broadcast along
/// rows; pass nullptr to zero-fill).
void fill_rows(std::size_t m, std::size_t n, const float* values, float* c);

/// Every column j of C (m x n) := values[i] per row i — i.e. C[i][j] =
/// values[i] (bias broadcast along columns; pass nullptr to zero-fill).
void fill_cols(std::size_t m, std::size_t n, const float* values, float* c);

/// B (k x n) row-major := Aᵀ for A (n x k) row-major.
void transpose(std::size_t n, std::size_t k, const float* a, float* b);

/// Unfold one (channels, height, width) image for a stride-1 square
/// convolution with zero padding `pad` into the column matrix
///   col ((channels * kernel * kernel) x (oh * ow)), row-major,
/// where oh = height + 2*pad - kernel + 1 (likewise ow). Row index is
/// (ic * kernel + ky) * kernel + kx — the exact accumulation order of the
/// naive six-deep convolution loops, so sgemm over this matrix reproduces
/// them bitwise. Out-of-image taps are zero.
void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad, float* col);

}  // namespace mvreju::num
