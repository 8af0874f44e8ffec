#pragma once

// Cross-stream dynamic batcher: the serving layer's throughput engine.
// Sessions submit single samples destined for a (shared, const) model; the
// batcher stages them per model and flushes a staged batch through one
// Sequential::logits_batch call either when it reaches max_batch (full
// flush, inside submit) or when its oldest sample has waited max_delay_us
// (deadline flush, driven by the owner's clock through flush_due).
//
// Correctness contract: logits_batch guarantees every sample's logits are
// bit-identical however the samples are batched and whatever num_threads is
// used, and the per-row argmax below replicates ml::argmax's first-max
// tie-break exactly — so a label produced through any batching equals the
// label of model->predict(sample). tests/serve_batcher_test.cpp holds this
// bit-exactly; the serve benchmark gates on it across a whole fleet.
//
// The batcher is passive and clock-agnostic: it never reads a clock, the
// caller stamps submissions with `now_us` (virtual time in the deterministic
// fleet, steady time in the socket server) and decides when to call
// flush_due. Single-owner, not thread-safe — it lives on the service thread.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mvreju/ml/model.hpp"
#include "mvreju/ml/workspace.hpp"

namespace mvreju::serve {

/// Identity of one flush: which flush it was, how many samples it carried,
/// and where its stage boundaries fell. Completions receive it so a
/// virtual-time owner can cost the batch (service time grows with size)
/// exactly once per flush, and so the owner can stamp each frame's
/// formed/infer trace points without the batcher owning a clock.
struct BatchStamp {
    std::uint64_t seq = 0;   ///< flush sequence number, 1-based
    std::uint32_t size = 0;  ///< samples in the flushed batch
    /// Caller time at which the flush was triggered (the `now_us` of the
    /// submit or flush_due/flush_all call that caused it).
    std::uint64_t formed_us = 0;
    /// Inference interval, read from Options::now_fn around the
    /// logits_batch call; both equal formed_us when no clock is provided
    /// (the virtual-time fleet substitutes its own service model).
    std::uint64_t infer_start_us = 0;
    std::uint64_t infer_end_us = 0;
};

class DynamicBatcher {
public:
    /// Called once per submitted sample, during the flush that carried it,
    /// in submission order within the batch.
    using Completion = std::function<void(int label, const BatchStamp& stamp)>;

    struct Options {
        int max_batch = 64;               ///< full-flush threshold
        std::uint64_t max_delay_us = 2000;  ///< oldest-sample wait bound
        std::size_t num_threads = 1;      ///< logits_batch parallelism
        std::vector<std::size_t> input_shape = {3, 16, 16};  ///< per-sample
        /// Optional clock for the BatchStamp infer interval (the batcher
        /// stays clock-agnostic on the control path: deadlines still come
        /// from the caller's `now_us` stamps). Null keeps the stamp's
        /// infer boundaries at formed_us — what the virtual-time fleet
        /// wants, since it costs inference with its own service model.
        std::function<std::uint64_t()> now_fn;
    };

    explicit DynamicBatcher(Options options);

    /// Stage one sample (copied) for `model`. Queues are keyed on the model
    /// alone; flushes immediately when the model's queue reaches max_batch.
    void submit(const ml::Sequential* model, const float* sample,
                std::uint64_t now_us, Completion done);

    /// Earliest deadline over all staged queues (oldest submit time +
    /// max_delay_us); nullopt when nothing is staged. The owner sleeps no
    /// longer than this.
    [[nodiscard]] std::optional<std::uint64_t> next_deadline_us() const;

    /// Flush every queue whose deadline is <= now_us; returns samples
    /// completed.
    std::size_t flush_due(std::uint64_t now_us);

    /// Flush everything regardless of deadlines (shutdown, end of run);
    /// `now_us` only stamps the resulting batches' formed_us.
    std::size_t flush_all(std::uint64_t now_us = 0);

    [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
    [[nodiscard]] std::size_t sample_size() const noexcept { return sample_size_; }
    [[nodiscard]] const Options& options() const noexcept { return options_; }

private:
    struct Queue {
        const ml::Sequential* model = nullptr;  ///< queue key
        std::vector<float> staging;        ///< size() = count * sample_size
        std::vector<Completion> done;      ///< one per staged sample
        std::uint64_t oldest_us = 0;       ///< submit stamp of the first sample
    };

    Queue& queue_for(const ml::Sequential* model);
    std::size_t flush_queue(Queue& queue, std::uint64_t formed_us);

    Options options_;
    std::size_t sample_size_;
    std::vector<Queue> queues_;  ///< linear scan: a pool has a handful of models
    std::size_t pending_ = 0;
    std::uint64_t flush_seq_ = 0;
    ml::Workspace ws_;
    /// Per-chunk workspaces for multi-threaded flushes. Indexed by chunk,
    /// not by thread: each chunk is executed exactly once, so its workspace
    /// is never shared even under work stealing.
    std::vector<ml::Workspace> chunk_ws_;
};

}  // namespace mvreju::serve
