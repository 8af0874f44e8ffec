// Concurrency hammer for the stateless inference contract: many threads
// drive predict(), predict_batch() and evaluate() on ONE shared const model
// simultaneously and every result must equal the serial golden. Sized to
// stay fast under ThreadSanitizer, which is where this suite earns its keep
// (the contract in ml/model.hpp promises no hidden mutable state).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mvreju/data/signs.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/ml/workspace.hpp"

namespace mvreju::ml {
namespace {

Dataset small_eval_set(std::size_t count) {
    Dataset ds;
    ds.num_classes = data::kSignClasses;
    for (std::size_t i = 0; i < count; ++i) {
        const int label = static_cast<int>(i) % data::kSignClasses;
        data::SignPose pose;
        pose.noise_sigma = 0.12;
        pose.noise_seed = 1000 + i;
        ds.images.push_back(data::render_sign(label, 16, pose));
        ds.labels.push_back(label);
    }
    return ds;
}

TEST(InferHammer, SharedConstModelSurvivesConcurrentInference) {
    const Dataset eval = small_eval_set(64);
    const Sequential model = make_micro_resnet(3, 16, data::kSignClasses, 38);

    // Serial goldens, computed before any concurrency starts.
    const std::vector<int> golden_preds = model.predict_batch(eval.images, 1);
    const Evaluation golden_eval = model.evaluate(eval, 1);
    const int golden_single = model.predict(eval.images.front());

    constexpr std::size_t kThreads = 8;
    constexpr int kRounds = 6;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                switch ((t + static_cast<std::size_t>(round)) % 3) {
                    case 0: {
                        if (model.predict(eval.images.front()) != golden_single)
                            mismatches.fetch_add(1);
                        break;
                    }
                    case 1: {
                        if (model.predict_batch(eval.images, 1) != golden_preds)
                            mismatches.fetch_add(1);
                        break;
                    }
                    default: {
                        const Evaluation e = model.evaluate(eval, 1);
                        if (e.accuracy != golden_eval.accuracy ||
                            e.error_set != golden_eval.error_set)
                            mismatches.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferHammer, SharedWorkspaceFreeLogitsBatchPerThread) {
    const Dataset eval = small_eval_set(32);
    const Sequential model = make_tiny_lenet(3, 16, data::kSignClasses, 38);

    Tensor batch({eval.images.size(), 3, 16, 16});
    const std::size_t sample = eval.images.front().size();
    for (std::size_t i = 0; i < eval.images.size(); ++i)
        for (std::size_t k = 0; k < sample; ++k)
            batch[i * sample + k] = eval.images[i][k];

    Workspace golden_ws;
    const Tensor golden = model.logits_batch(batch, golden_ws, 1);

    // Each thread brings its own Workspace, as the Layer contract requires;
    // the model itself is shared and must never be written. Threads also
    // fan their own batch out over 1-3 workers, so nested parallelism runs
    // on the shared model too.
    constexpr std::size_t kThreads = 8;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Workspace ws;
            for (int round = 0; round < 4; ++round) {
                Tensor logits = model.logits_batch(batch, ws, 1 + t % 3);
                if (logits.size() != golden.size()) {
                    mismatches.fetch_add(1);
                } else {
                    for (std::size_t i = 0; i < golden.size(); ++i)
                        if (logits[i] != golden[i]) {
                            mismatches.fetch_add(1);
                            break;
                        }
                }
                ws.give(std::move(logits));
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace mvreju::ml
