#include "mvreju/serve/batcher.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/util/parallel.hpp"

namespace mvreju::serve {

DynamicBatcher::DynamicBatcher(Options options)
    : options_(std::move(options)),
      sample_size_(ml::Tensor::count(options_.input_shape)) {
    if (options_.max_batch < 1)
        throw std::invalid_argument("DynamicBatcher: max_batch must be >= 1");
    if (sample_size_ == 0)
        throw std::invalid_argument("DynamicBatcher: empty input shape");
}

DynamicBatcher::Queue& DynamicBatcher::queue_for(const ml::Sequential* model) {
    for (Queue& q : queues_)
        if (q.model == model) return q;
    queues_.push_back(Queue{model, {}, {}, 0});
    return queues_.back();
}

void DynamicBatcher::submit(const ml::Sequential* model, const float* sample,
                            std::uint64_t now_us, Completion done) {
    Queue& queue = queue_for(model);
    if (queue.done.empty()) queue.oldest_us = now_us;
    queue.staging.insert(queue.staging.end(), sample, sample + sample_size_);
    queue.done.push_back(std::move(done));
    ++pending_;
    if (queue.done.size() >= static_cast<std::size_t>(options_.max_batch)) {
        static obs::Counter& full = obs::metrics().counter("serve.batch.flushes_full");
        full.add(1);
        flush_queue(queue, now_us);
    }
}

std::optional<std::uint64_t> DynamicBatcher::next_deadline_us() const {
    std::optional<std::uint64_t> deadline;
    for (const Queue& q : queues_) {
        if (q.done.empty()) continue;
        const std::uint64_t d = q.oldest_us + options_.max_delay_us;
        if (!deadline || d < *deadline) deadline = d;
    }
    return deadline;
}

std::size_t DynamicBatcher::flush_due(std::uint64_t now_us) {
    // Index-based iteration: completions running inside flush_queue may
    // re-submit, and a submit for a model the batcher has not seen yet grows
    // queues_, invalidating iterators and references. Re-reading size() each
    // pass also gives queues appended mid-loop their own deadline check.
    std::size_t completed = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        if (queues_[i].done.empty() ||
            queues_[i].oldest_us + options_.max_delay_us > now_us)
            continue;
        static obs::Counter& deadline =
            obs::metrics().counter("serve.batch.flushes_deadline");
        deadline.add(1);
        completed += flush_queue(queues_[i], now_us);
    }
    return completed;
}

std::size_t DynamicBatcher::flush_all(std::uint64_t now_us) {
    std::size_t completed = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i)
        if (!queues_[i].done.empty()) completed += flush_queue(queues_[i], now_us);
    return completed;
}

std::size_t DynamicBatcher::flush_queue(Queue& queue, std::uint64_t formed_us) {
    const std::size_t n = queue.done.size();
    const ml::Sequential* model = queue.model;
    // Steal the staged batch first: completions may re-submit — including
    // for an unseen model, which reallocates queues_ and dangles `queue` —
    // so nothing below may touch the Queue reference again.
    std::vector<float> staged = std::move(queue.staging);
    std::vector<Completion> done = std::move(queue.done);
    queue.staging.clear();
    queue.done.clear();
    pending_ -= n;

    // Parallelism lives at chunk granularity, mirroring predict_batch: each
    // chunk runs the whole layer stack serially in its own workspace, so one
    // parallel_for covers the flush. Per-layer thread fan-out inside
    // logits_batch would respawn workers layer by layer and eat the batching
    // win. Chunking never changes a sample's logits, so labels stay
    // bit-identical to model->predict() for every chunking and thread count.
    constexpr std::size_t kMinChunk = 8;
    std::size_t workers =
        options_.num_threads == 0 ? util::hardware_threads() : options_.num_threads;
    workers = std::min(workers, n / kMinChunk);

    std::vector<int> labels(n);
    const std::uint64_t infer_start_us =
        options_.now_fn ? options_.now_fn() : formed_us;
    auto run_chunk = [&](ml::Workspace& ws, std::size_t pos, std::size_t nb) {
        // CPU attribution for the sampling profiler: inference dominates a
        // serving process, and the scope also registers the (fresh, per
        // flush) parallel_for workers with the profiler's recycled rings.
        MVREJU_PROFILE_STAGE(profile_scope, "infer");
        std::vector<std::size_t> shape;
        shape.reserve(options_.input_shape.size() + 1);
        shape.push_back(nb);
        shape.insert(shape.end(), options_.input_shape.begin(),
                     options_.input_shape.end());
        ml::Tensor batch = ws.take(std::move(shape));
        std::memcpy(batch.data().data(), staged.data() + pos * sample_size_,
                    nb * sample_size_ * sizeof(float));
        ml::Tensor logits = model->logits_batch(batch, ws, 1);
        const std::size_t classes = logits.size() / nb;
        const float* rows = logits.data().data();
        for (std::size_t i = 0; i < nb; ++i) {
            // First-max argmax over the row, replicating ml::argmax (and
            // thus model->predict) bit-for-bit — ties resolve to the lowest
            // class.
            const float* row = rows + i * classes;
            std::size_t best = 0;
            for (std::size_t j = 1; j < classes; ++j)
                if (row[j] > row[best]) best = j;
            labels[pos + i] = static_cast<int>(best);
        }
        ws.give(std::move(logits));
        ws.give(std::move(batch));
    };

    if (workers <= 1) {
        run_chunk(ws_, 0, n);
    } else {
        if (chunk_ws_.size() < workers) chunk_ws_.resize(workers);
        const std::size_t chunk = (n + workers - 1) / workers;
        util::parallel_for(
            workers,
            [&](std::size_t c) {
                const std::size_t pos = c * chunk;
                if (pos >= n) return;
                run_chunk(chunk_ws_[c], pos, std::min(chunk, n - pos));
            },
            workers);
    }

    static obs::Counter& frames = obs::metrics().counter("serve.batch.frames");
    static obs::Histogram& sizes = obs::metrics().histogram(
        "serve.batch.size", obs::HistogramBounds::exponential(1.0, 2.0, 9));
    frames.add(n);
    sizes.record(static_cast<double>(n));

    const std::uint64_t infer_end_us =
        options_.now_fn ? options_.now_fn() : formed_us;
    const BatchStamp stamp{++flush_seq_, static_cast<std::uint32_t>(n), formed_us,
                           infer_start_us, infer_end_us};
    for (std::size_t i = 0; i < n; ++i) done[i](labels[i], stamp);
    return n;
}

}  // namespace mvreju::serve
