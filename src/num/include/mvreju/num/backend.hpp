#pragma once

// Runtime-selectable kernel backends for the inference stack (ROADMAP
// item 2, in the spirit of mlpack's design-for-multiple-backends).
//
// A KernelBackend bundles the two GEMM kernels the ML layers dispatch
// through — sgemm / sgemm_nt — behind one interface so a model can be
// *bound* to a backend once at load time and the hot loop stays free of
// per-call branching. Two implementations register here:
//
//  - "scalar": the existing gemm.cpp kernels, unchanged semantics. This is
//    the bit-exact oracle every other backend is gated against.
//  - "avx2": FMA-tiled GEMM with panel-packed B, compiled only when the
//    compiler supports -mavx2/-mfma and selected only after a runtime CPUID
//    check. Deterministic (fixed summation order, one task per output
//    element) but NOT bit-identical to scalar — it is gated on argmax
//    equivalence over the full eval set instead.
//
// Determinism contract (all backends): every output element is produced by
// exactly one task in a fixed reduction order, so a backend's results are
// bitwise identical for every thread count. Only "scalar" additionally
// promises bit-identity with the naive reference loops.

#include <cstddef>
#include <string_view>
#include <vector>

namespace mvreju::num {

class KernelBackend {
public:
    virtual ~KernelBackend() = default;

    /// Stable registry name ("scalar", "avx2").
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// True when this backend reproduces the scalar kernels bit-for-bit.
    [[nodiscard]] virtual bool bit_exact() const noexcept = 0;

    /// True when the current CPU can execute this backend. Compiled-in
    /// backends whose ISA the host lacks report false and must never be
    /// dispatched to (select_backend() falls back to scalar instead).
    [[nodiscard]] virtual bool supported() const noexcept { return true; }

    /// C (m x n) += A (m x k) · B (k x n), row-major. Same calling
    /// convention as num::sgemm.
    virtual void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, std::size_t num_threads) const = 0;

    /// C (m x n) += A (m x k) · Bᵀ with B (n x k) row-major. Same calling
    /// convention as num::sgemm_nt.
    virtual void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
                          const float* b, float* c, std::size_t num_threads) const = 0;
};

/// The bit-exact oracle backend (always present, index 0 in backends()).
[[nodiscard]] const KernelBackend& scalar_backend() noexcept;

/// Every compiled-in backend in stable registry order: scalar, then avx2
/// (when the toolchain could compile it). Entries may still be
/// unsupported() on this host — filter before dispatching.
[[nodiscard]] const std::vector<const KernelBackend*>& backends() noexcept;

/// Registry lookup by name; nullptr when unknown or not compiled in.
[[nodiscard]] const KernelBackend* find_backend(std::string_view name) noexcept;

/// Runtime CPUID check: does this host execute AVX2+FMA?
[[nodiscard]] bool avx2_supported() noexcept;

/// Resolve a backend request to a dispatchable backend:
///  - empty `requested` falls through to the MVREJU_BACKEND environment
///    variable, then to "scalar";
///  - an unknown name throws std::invalid_argument;
///  - a known backend the host cannot execute (avx2 without CPU support)
///    falls back to scalar with a logged warning — never a crash.
[[nodiscard]] const KernelBackend& select_backend(std::string_view requested = {});

/// Position of `backend` within backends() — exported as the
/// ml.backend.name gauge so /metrics can identify the active backend.
[[nodiscard]] std::size_t backend_index(const KernelBackend& backend) noexcept;

}  // namespace mvreju::num
