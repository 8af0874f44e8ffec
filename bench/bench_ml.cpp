// Machine-readable inference-engine benchmarks: the per-sample naive layer
// loop (the pre-batching seed path) against the batched im2col+GEMM engine,
// on the Table II eval-set workload (the procedural signs test set) for all
// three sign-classifier architectures, plus raw GEMM kernel throughput.
// Emits BENCH_ml.json stamped with run metadata (git SHA, build type,
// compiler).
//
// Claims checked, not just timed:
//   * batched predictions reproduce the naive per-sample argmax on every
//     eval image;
//   * batched logits stay within 1e-5 of the naive ones;
//   * batched logits are bit-identical for 1/2/4/8 threads;
//   * the raw GEMM kernel is bit-identical for 1/2/4/8 threads — the gates
//     bench_compare.py enforces in CI.
//
// Usage: bench_ml [--out PATH] [--metrics PATH] [--trace PATH]
//   --out      result table        (default BENCH_ml.json)
//   --metrics  metrics snapshot    (default BENCH_ml.metrics.json)
//   --trace    Chrome/Perfetto trace of the whole run (off unless given)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mvreju/data/signs.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/ml/workspace.hpp"
#include "mvreju/num/gemm.hpp"
#include "mvreju/obs/buildinfo.hpp"
#include "mvreju/obs/session.hpp"
#include "mvreju/util/args.hpp"
#include "mvreju/util/parallel.hpp"
#include "mvreju/util/rng.hpp"

namespace {

using namespace mvreju;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Best-of-`reps` wall time in milliseconds for `fn`.
template <typename Fn>
double time_best_ms(int reps, Fn&& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        best = std::min(best, ms_since(start));
    }
    return best;
}

/// The seed path this PR replaced: one image at a time through every
/// layer's training-grade forward(x, /*training=*/false) loop nest.
std::vector<int> naive_predict_all(ml::Sequential& model,
                                   const std::vector<ml::Tensor>& images,
                                   std::vector<float>* logits_out) {
    std::vector<int> preds;
    preds.reserve(images.size());
    if (logits_out) logits_out->clear();
    for (const ml::Tensor& img : images) {
        ml::Tensor x = img;
        for (std::size_t l = 0; l < model.layer_count(); ++l)
            x = model.layer(l).forward(x, /*training=*/false);
        preds.push_back(static_cast<int>(ml::argmax(x)));
        if (logits_out)
            logits_out->insert(logits_out->end(), x.data().begin(), x.data().end());
    }
    return preds;
}

struct ThreadRow {
    std::size_t threads = 0;
    double ms = 0.0;
    double images_per_s = 0.0;
    double speedup_vs_1 = 0.0;
    bool bit_identical_to_1thread = false;
};

struct ModelRow {
    std::string name;
    std::size_t parameters = 0;
    double naive_ms = 0.0;
    double batched_1thread_ms = 0.0;
    double speedup_1thread = 0.0;
    double max_abs_logit_diff = 0.0;
    bool argmax_identical = false;
    std::vector<ThreadRow> threads;
};

bool write_json(const std::string& path, std::size_t images,
                const std::vector<ModelRow>& rows, bool all_argmax, bool all_bits,
                double min_speedup, const std::string& gemm_section) {
    std::ofstream out(path);
    out << std::setprecision(17);
    out << "{\n";
    out << "  \"bench\": \"ml\",\n";
    out << "  \"meta\": " << obs::run_metadata_json() << ",\n";
    out << "  \"hardware_threads\": " << util::hardware_threads() << ",\n";
    out << "  \"eval_images\": " << images << ",\n";
    out << "  \"models\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ModelRow& r = rows[i];
        out << "    {\"name\": \"" << r.name << "\", \"parameters\": " << r.parameters
            << ", \"naive_per_sample_ms\": " << r.naive_ms
            << ", \"batched_1thread_ms\": " << r.batched_1thread_ms
            << ", \"speedup_1thread\": " << r.speedup_1thread
            << ", \"max_abs_logit_diff\": " << r.max_abs_logit_diff
            << ", \"argmax_identical\": " << (r.argmax_identical ? "true" : "false")
            << ", \"threads\": [\n";
        for (std::size_t t = 0; t < r.threads.size(); ++t) {
            const ThreadRow& tr = r.threads[t];
            out << "      {\"threads\": " << tr.threads << ", \"ms\": " << tr.ms
                << ", \"images_per_s\": " << tr.images_per_s
                << ", \"speedup_vs_1\": " << tr.speedup_vs_1
                << ", \"bit_identical_to_1thread\": "
                << (tr.bit_identical_to_1thread ? "true" : "false") << "}"
                << (t + 1 < r.threads.size() ? ",\n" : "\n");
        }
        out << "    ]}" << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    out << gemm_section;
    out << "  \"all_argmax_identical\": " << (all_argmax ? "true" : "false") << ",\n";
    out << "  \"all_bit_identical\": " << (all_bits ? "true" : "false") << ",\n";
    out << "  \"min_speedup_1thread\": " << min_speedup << "\n";
    out << "}\n";
    return out.good();
}

}  // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const std::string out_path = args.get("out", std::string("BENCH_ml.json"));
    obs::Session session(args, "BENCH_ml.metrics.json");

    // The Table II workload: the full procedural signs test set. Training
    // does not change the FLOP count, so the models run with their seeded
    // initial weights and the bench stays fast enough for CI.
    data::SignDatasetConfig data_cfg;
    data_cfg.train_count = 1;  // the test set is independent of train_count
    const auto dataset = data::make_traffic_signs(data_cfg);
    const std::vector<ml::Tensor>& images = dataset.test.images;
    const std::size_t sample_size = images.front().size();

    std::vector<ml::Sequential> models;
    models.push_back(ml::make_mini_alexnet(3, 16, data::kSignClasses, 38));
    models.push_back(ml::make_micro_resnet(3, 16, data::kSignClasses, 38));
    models.push_back(ml::make_tiny_lenet(3, 16, data::kSignClasses, 38));

    // One (N, C, H, W) batch of the whole eval set for the bit-identity
    // check (predict_batch re-chunks internally for the timed runs).
    ml::Tensor full_batch({images.size(), 3, 16, 16});
    for (std::size_t i = 0; i < images.size(); ++i)
        std::memcpy(full_batch.data().data() + i * sample_size,
                    images[i].data().data(), sample_size * sizeof(float));

    std::vector<ModelRow> rows;
    bool all_argmax = true;
    bool all_bits = true;
    double min_speedup = std::numeric_limits<double>::infinity();

    for (ml::Sequential& model : models) {
        ModelRow row;
        row.name = model.name();
        row.parameters = model.parameter_count();

        std::vector<float> naive_logits;
        std::vector<int> naive_preds;
        row.naive_ms = time_best_ms(
            2, [&] { naive_preds = naive_predict_all(model, images, &naive_logits); });

        std::vector<int> batched_preds;
        row.batched_1thread_ms =
            time_best_ms(3, [&] { batched_preds = model.predict_batch(images, 1); });
        row.speedup_1thread = row.naive_ms / row.batched_1thread_ms;
        row.argmax_identical = batched_preds == naive_preds;

        ml::Workspace ws;
        ml::Tensor logits_1 = model.logits_batch(full_batch, ws, 1);
        for (std::size_t i = 0; i < logits_1.size(); ++i)
            row.max_abs_logit_diff = std::max(
                row.max_abs_logit_diff,
                static_cast<double>(std::fabs(logits_1[i] - naive_logits[i])));

        for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
            ThreadRow tr;
            tr.threads = threads;
            tr.ms = time_best_ms(
                3, [&] { (void)model.predict_batch(images, threads); });
            tr.images_per_s = 1000.0 * static_cast<double>(images.size()) / tr.ms;
            tr.speedup_vs_1 = row.threads.empty() ? 1.0 : row.threads.front().ms / tr.ms;
            ml::Tensor logits_t = model.logits_batch(full_batch, ws, threads);
            tr.bit_identical_to_1thread =
                logits_t.size() == logits_1.size() &&
                std::memcmp(logits_t.data().data(), logits_1.data().data(),
                            logits_1.size() * sizeof(float)) == 0;
            ws.give(std::move(logits_t));
            all_bits = all_bits && tr.bit_identical_to_1thread;
            row.threads.push_back(tr);
            std::cout << row.name << " threads=" << tr.threads << " ms=" << tr.ms
                      << " images_per_s=" << tr.images_per_s
                      << " bit_identical=" << (tr.bit_identical_to_1thread ? "yes" : "no")
                      << "\n";
        }
        std::cout << row.name << " naive_ms=" << row.naive_ms
                  << " batched_1thread_ms=" << row.batched_1thread_ms
                  << " speedup=" << row.speedup_1thread
                  << " max_abs_logit_diff=" << row.max_abs_logit_diff
                  << " argmax_identical=" << (row.argmax_identical ? "yes" : "no")
                  << "\n";

        all_argmax = all_argmax && row.argmax_identical;
        min_speedup = std::min(min_speedup, row.speedup_1thread);
        rows.push_back(std::move(row));
    }

    // ---- Raw GEMM kernel: throughput + thread bit-identity ----
    //
    // One conv-shaped C += A·B at 1/2/4/8 threads. Every C element has one
    // accumulator whatever the thread count, so each run must memcmp-equal
    // the 1-thread result.
    constexpr std::size_t kGemmM = 256, kGemmN = 1024, kGemmK = 256;
    util::Rng rng(4242);
    std::vector<float> a(kGemmM * kGemmK), b(kGemmK * kGemmN);
    for (float& v : a) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
    const auto gemm_once = [&](std::size_t threads) {
        std::vector<float> c(kGemmM * kGemmN, 0.0f);
        num::sgemm(kGemmM, kGemmN, kGemmK, a.data(), b.data(), c.data(), threads);
        return c;
    };
    std::vector<float> c(kGemmM * kGemmN, 0.0f);
    const double gemm_ms = time_best_ms(3, [&] {
        num::sgemm(kGemmM, kGemmN, kGemmK, a.data(), b.data(), c.data(), 1);
    });
    const std::vector<float> gemm_ref = gemm_once(1);
    const double gemm_gflops =
        2.0 * static_cast<double>(kGemmM * kGemmN * kGemmK) / 1e6 / gemm_ms;
    bool gemm_bits = true;
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        const std::vector<float> got = gemm_once(threads);
        gemm_bits = gemm_bits && std::memcmp(got.data(), gemm_ref.data(),
                                             gemm_ref.size() * sizeof(float)) == 0;
    }
    std::cout << "gemm " << kGemmM << "x" << kGemmN << "x" << kGemmK
              << " gflops_1thread=" << gemm_gflops
              << " bit_identical_across_threads=" << (gemm_bits ? "yes" : "no")
              << "\n";

    std::ostringstream extra;
    extra << std::setprecision(17);
    extra << "  \"gemm\": {\"m\": " << kGemmM << ", \"n\": " << kGemmN
          << ", \"k\": " << kGemmK << ", \"gflops_1thread\": " << gemm_gflops
          << ", \"bit_identical_across_threads\": " << (gemm_bits ? "true" : "false")
          << "},\n";

    if (!write_json(out_path, images.size(), rows, all_argmax, all_bits, min_speedup,
                    extra.str())) {
        std::cerr << "ERROR: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << " (min 1-thread speedup " << min_speedup
              << "x)\n";
    if (!all_argmax) {
        std::cerr << "ERROR: batched argmax differs from the per-sample path\n";
        return 1;
    }
    if (!all_bits) {
        std::cerr << "ERROR: batched logits not bit-identical across thread counts\n";
        return 1;
    }
    if (!gemm_bits) {
        std::cerr << "ERROR: GEMM not bit-identical across thread counts\n";
        return 1;
    }
    if (min_speedup < 3.0)
        std::cerr << "WARNING: batched speedup below the 3x target\n";
    return 0;
}
