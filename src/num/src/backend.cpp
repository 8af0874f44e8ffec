#include "mvreju/num/backend.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "mvreju/num/gemm.hpp"
#include "mvreju/obs/log.hpp"

namespace mvreju::num {

// Defined in backend_avx2.cpp; returns nullptr when the toolchain could not
// compile the intrinsics.
const KernelBackend* avx2_backend_or_null() noexcept;

namespace {

/// The existing gemm.cpp kernels, verbatim — the bit-exact oracle.
class ScalarBackend final : public KernelBackend {
public:
    [[nodiscard]] std::string_view name() const noexcept override { return "scalar"; }
    void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
               const float* b, float* c, std::size_t num_threads) const override {
        num::sgemm(m, n, k, a, b, c, num_threads);
    }
    void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  const float* b, float* c, std::size_t num_threads) const override {
        num::sgemm_nt(m, n, k, a, b, c, num_threads);
    }
};

const ScalarBackend g_scalar;

std::vector<const KernelBackend*> build_registry() {
    std::vector<const KernelBackend*> list;
    list.push_back(&g_scalar);
    if (const KernelBackend* avx2 = avx2_backend_or_null()) list.push_back(avx2);
    return list;
}

}  // namespace

const KernelBackend& scalar_backend() noexcept { return g_scalar; }

const std::vector<const KernelBackend*>& backends() noexcept {
    static const std::vector<const KernelBackend*> g_registry = build_registry();
    return g_registry;
}

const KernelBackend* find_backend(std::string_view name) noexcept {
    for (const KernelBackend* backend : backends())
        if (backend->name() == name) return backend;
    return nullptr;
}

const KernelBackend& select_backend(std::string_view requested) {
    std::string_view name = requested;
    if (name.empty()) {
        if (const char* env = std::getenv("MVREJU_BACKEND")) name = env;
    }
    if (name.empty()) return g_scalar;
    const KernelBackend* backend = find_backend(name);
    if (backend == nullptr) {
        if (name == "avx2") {
            // Known backend that this toolchain could not compile: fall back
            // like an unsupported host rather than rejecting the flag.
            obs::log_warn("backend 'avx2' not compiled in; falling back to scalar");
            return g_scalar;
        }
        std::string known;
        for (const KernelBackend* b : backends())
            known += (known.empty() ? "" : ", ") + std::string(b->name());
        throw std::invalid_argument("unknown kernel backend: '" + std::string(name) +
                                    "' (known: " + known + ")");
    }
    if (!backend->supported()) {
        obs::log_warn("backend '" + std::string(backend->name()) +
                      "' unsupported on this CPU; falling back to scalar");
        return g_scalar;
    }
    return *backend;
}

std::size_t backend_index(const KernelBackend& backend) noexcept {
    const auto& list = backends();
    for (std::size_t i = 0; i < list.size(); ++i)
        if (list[i] == &backend) return i;
    return 0;
}

}  // namespace mvreju::num
