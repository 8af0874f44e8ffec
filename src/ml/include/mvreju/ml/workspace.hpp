#pragma once

// Caller-owned scratch memory for the batched inference path. The engine is
// stateless: layers never cache activations during `infer`, so all transient
// buffers — per-layer activations, the im2col column matrix, the transposed
// Dense weight copy — live in a Workspace the caller provides. One workspace
// per thread gives lock-free concurrent inference on a shared const model;
// reusing the same workspace across calls amortises every allocation away
// after the first batch.

#include <cstddef>
#include <utility>
#include <vector>

#include "mvreju/ml/tensor.hpp"

namespace mvreju::ml {

/// Arena of recycled Tensors plus two raw float scratch buffers. Not
/// thread-safe — use one Workspace per thread (see the thread-safety
/// contract in model.hpp).
class Workspace {
public:
    /// A tensor of `shape`, recycled from the pool when one is available.
    /// Element values are unspecified; the caller overwrites them.
    [[nodiscard]] Tensor take(std::vector<std::size_t> shape) {
        if (pool_.empty()) {
            ++allocations_;
            return Tensor(std::move(shape));
        }
        Tensor t = std::move(pool_.back());
        pool_.pop_back();
        const std::size_t cap = t.capacity();
        t.resize(std::move(shape));
        if (t.capacity() > cap) ++allocations_;
        return t;
    }

    /// Return a tensor to the pool for reuse by a later take().
    void give(Tensor t) { pool_.push_back(std::move(t)); }

    /// im2col column-matrix scratch, resized to at least `n` elements.
    [[nodiscard]] std::vector<float>& col(std::size_t n) {
        grow(col_, n);
        return col_;
    }

    /// Auxiliary scratch (transposed Dense weights), at least `n` elements.
    [[nodiscard]] std::vector<float>& aux(std::size_t n) {
        grow(aux_, n);
        return aux_;
    }

    /// Number of heap growth events (new pooled tensor, tensor capacity
    /// growth, scratch capacity growth) since construction. In the steady
    /// state — same shapes batch after batch — this must stay constant;
    /// bench/microbench.cpp asserts it.
    [[nodiscard]] std::size_t allocation_count() const noexcept {
        return allocations_;
    }

    /// Total bytes currently held (pooled tensor capacity + scratch
    /// capacity) — exported as the ml.infer.workspace_bytes gauge.
    [[nodiscard]] std::size_t bytes() const noexcept {
        std::size_t elements = col_.capacity() + aux_.capacity();
        for (const Tensor& t : pool_) elements += t.capacity();
        return elements * sizeof(float);
    }

private:
    void grow(std::vector<float>& buffer, std::size_t n) {
        if (buffer.size() >= n) return;
        const std::size_t cap = buffer.capacity();
        buffer.resize(n);
        if (buffer.capacity() > cap) ++allocations_;
    }

    std::vector<Tensor> pool_;
    std::vector<float> col_;
    std::vector<float> aux_;
    std::size_t allocations_ = 0;
};

}  // namespace mvreju::ml
