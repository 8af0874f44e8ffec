// Google-benchmark microbenchmarks for the performance-critical primitives:
// the scalar GEMM kernels on every shape the shipped models run, detector
// inference, voting, DSPN reachability + steady-state solving
// (dense LU vs the sparse Gauss-Seidel core across state-space sizes),
// serial vs parallel ensemble simulation, the discrete-event health engine
// and sign rendering. These guard against performance regressions; they do
// not correspond to a paper table. For the machine-readable solver numbers
// (BENCH_solvers.json) run the bench_solvers binary.

#include <benchmark/benchmark.h>

#include "mvreju/av/perception.hpp"
#include "mvreju/av/sensor.hpp"
#include "mvreju/core/dspn_models.hpp"
#include "mvreju/core/health.hpp"
#include "mvreju/core/voter.hpp"
#include "mvreju/data/signs.hpp"
#include "mvreju/dspn/simulate.hpp"
#include "mvreju/dspn/solver.hpp"
#include "mvreju/ml/workspace.hpp"
#include "mvreju/num/gemm.hpp"
#include "mvreju/num/linalg.hpp"
#include "mvreju/num/sparse_markov.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/util/rng.hpp"

namespace {

using namespace mvreju;

/// Random irreducible CTMC generator with ~5 edges per state (a cycle for
/// irreducibility plus random shortcuts) — the shape of a tangible
/// reachability graph.
num::SparseMatrix random_ctmc(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<num::Triplet> triplets;
    auto edge = [&](std::size_t from, std::size_t to, double rate) {
        triplets.push_back({from, to, rate});
        triplets.push_back({from, from, -rate});
    };
    for (std::size_t i = 0; i < n; ++i) edge(i, (i + 1) % n, rng.uniform(0.5, 2.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (int k = 0; k < 4; ++k) {
            const std::size_t to = rng.uniform_int(n);
            if (to != i) edge(i, to, rng.uniform(0.1, 3.0));
        }
    }
    return num::SparseMatrix::from_triplets(n, n, std::move(triplets));
}

void BM_RngUniform(benchmark::State& state) {
    util::Rng rng(1);
    for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_RenderSign(benchmark::State& state) {
    data::SignPose pose;
    pose.noise_sigma = 0.1;
    for (auto _ : state) benchmark::DoNotOptimize(data::render_sign(5, 16, pose));
}
BENCHMARK(BM_RenderSign);

/// The scalar kernel under every version's inference, one row per GEMM the
/// six shipped models run. Args are m, n, k and nt (1 = num::sgemm_nt).
/// Conv2D::infer runs sgemm(out_channels, oh * ow, in_channels * 9) per
/// sample; Dense::infer runs (batch, outputs, inputs) through sgemm_nt below
/// batch 8 and through sgemm on transposed weights from batch 8 up. Items
/// are flops (2 per multiply-add), so items/s reads as FLOP/s.
void BM_GemmModelShapes(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto k = static_cast<std::size_t>(state.range(2));
    const bool nt = state.range(3) != 0;
    util::Rng rng(5);
    std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto _ : state) {
        if (nt)
            num::sgemm_nt(m, n, k, a.data(), b.data(), c.data(), 1);
        else
            num::sgemm(m, n, k, a.data(), b.data(), c.data(), 1);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * m * n * k));
}
BENCHMARK(BM_GemmModelShapes)
    ->ArgNames({"m", "n", "k", "nt"})
    // Conv layers. av detectors S/M/L: 2 channels on the 12 x 12 grid.
    ->Args({6, 144, 18, 0})->Args({12, 36, 54, 0})->Args({8, 144, 18, 0})
    ->Args({8, 144, 72, 0})->Args({8, 36, 72, 0})
    // serve TinyLeNet / MiniAlexNet / MicroResNet: 3 x 16 x 16 images.
    ->Args({6, 256, 27, 0})->Args({12, 64, 54, 0})->Args({10, 256, 27, 0})
    ->Args({16, 64, 90, 0})->Args({16, 64, 144, 0})->Args({12, 256, 27, 0})
    ->Args({12, 64, 108, 0})->Args({12, 16, 108, 0})
    // Dense layers (outputs, inputs) at batch 1 and 3 (NT) and 56 (NN).
    ->Apply([](benchmark::internal::Benchmark* bench) {
        const std::int64_t dense[][2] = {{32, 108}, {48, 288}, {40, 288},
                                         {8, 32},   {8, 48},   {8, 40},
                                         {48, 192}, {64, 256}, {8, 64}};
        for (const auto& layer : dense) {
            bench->Args({1, layer[0], layer[1], 1});
            bench->Args({3, layer[0], layer[1], 1});
            bench->Args({56, layer[0], layer[1], 0});
        }
    });

void BM_DetectorInference(benchmark::State& state) {
    av::SensorConfig sensor;
    const ml::Sequential model = av::make_detector_s(sensor, 1);
    util::Rng rng(2);
    const ml::Tensor grid =
        av::render_grid({{0.0, 0.0}, 2.25, 0.95, 0.0}, {}, sensor, rng);
    for (auto _ : state) benchmark::DoNotOptimize(model.predict(grid));
}
BENCHMARK(BM_DetectorInference);

void BM_SignClassifierInference(benchmark::State& state) {
    const ml::Sequential model = ml::make_tiny_lenet(3, 16, data::kSignClasses, 1);
    const ml::Tensor img = data::render_sign(3, 16, {});
    for (auto _ : state) benchmark::DoNotOptimize(model.predict(img));
}
BENCHMARK(BM_SignClassifierInference);

void BM_DetectorInferenceBatched(benchmark::State& state) {
    av::SensorConfig sensor;
    const ml::Sequential model = av::make_detector_s(sensor, 1);
    util::Rng rng(2);
    std::vector<ml::Tensor> grids;
    for (int i = 0; i < 64; ++i)
        grids.push_back(av::render_grid({{0.0, 0.0}, 2.25, 0.95, 0.0}, {}, sensor, rng));
    for (auto _ : state) benchmark::DoNotOptimize(model.predict_batch(grids, 1));
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(grids.size()));
}
BENCHMARK(BM_DetectorInferenceBatched);

void BM_SignClassifierInferenceBatched(benchmark::State& state) {
    const ml::Sequential model = ml::make_tiny_lenet(3, 16, data::kSignClasses, 1);
    std::vector<ml::Tensor> images;
    for (int i = 0; i < 64; ++i)
        images.push_back(data::render_sign(i % data::kSignClasses, 16, {}));
    for (auto _ : state) benchmark::DoNotOptimize(model.predict_batch(images, 1));
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(images.size()));
}
BENCHMARK(BM_SignClassifierInferenceBatched);

/// The pooled-im2col guarantee, asserted: after one warm-up
/// batch sizes the Workspace pool, repeated same-shape conv inference
/// performs zero heap growth (Workspace::allocation_count() is flat). A
/// regression here silently turns the batched hot loop into an allocation
/// storm, so the bench fails rather than just reporting a slower number.
void BM_ConvBatchSteadyState(benchmark::State& state) {
    const ml::Sequential model = ml::make_mini_alexnet(3, 16, data::kSignClasses, 1);
    std::vector<std::size_t> shape{32, 3, 16, 16};
    ml::Tensor batch(shape);
    util::Rng rng(3);
    for (std::size_t i = 0; i < batch.size(); ++i)
        batch[i] = static_cast<float>(rng.uniform());

    ml::Workspace ws;
    ws.give(model.logits_batch(batch, ws, 4));  // warm-up sizes the pool
    const std::size_t steady = ws.allocation_count();
    for (auto _ : state) {
        ws.give(model.logits_batch(batch, ws, 4));
        benchmark::ClobberMemory();
    }
    if (ws.allocation_count() != steady)
        state.SkipWithError("conv path allocated in steady state");
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ConvBatchSteadyState)->UseRealTime();

void BM_MajorityVote(benchmark::State& state) {
    core::Voter<int> voter;
    const std::vector<std::optional<int>> proposals{3, 4, 3};
    for (auto _ : state) benchmark::DoNotOptimize(voter.vote(proposals));
}
BENCHMARK(BM_MajorityVote);

void BM_ReachabilityGraph(benchmark::State& state) {
    core::DspnConfig cfg;
    const auto model = core::build_multiversion_dspn(cfg);
    for (auto _ : state) {
        dspn::ReachabilityGraph graph(model.net);
        benchmark::DoNotOptimize(graph.state_count());
    }
}
BENCHMARK(BM_ReachabilityGraph);

void BM_DspnSteadyState(benchmark::State& state) {
    core::DspnConfig cfg;
    const auto model = core::build_multiversion_dspn(cfg);
    const dspn::ReachabilityGraph graph(model.net);
    for (auto _ : state) benchmark::DoNotOptimize(dspn::dspn_steady_state(graph));
}
BENCHMARK(BM_DspnSteadyState);

void BM_DenseSteadyState(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const num::Matrix q = random_ctmc(n, 17).to_dense();
    for (auto _ : state) benchmark::DoNotOptimize(num::solve_stationary(q));
}
BENCHMARK(BM_DenseSteadyState)->Arg(64)->Arg(256)->Arg(512);

void BM_SparseSteadyState(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const num::SparseMatrix q = random_ctmc(n, 17);
    num::StationaryOptions opts;
    opts.dense_cutoff = 0;  // force the iterative path at every size
    for (auto _ : state) benchmark::DoNotOptimize(num::ctmc_steady_state(q, opts));
}
BENCHMARK(BM_SparseSteadyState)->Arg(64)->Arg(256)->Arg(512)->Arg(2048)->Arg(8192);

void BM_EnsembleTransient(benchmark::State& state) {
    const auto threads = static_cast<std::size_t>(state.range(0));
    core::DspnConfig cfg;
    cfg.timing.mttc = 8.0;
    cfg.timing.mttf = 16.0;
    cfg.timing.rejuvenation_interval = 3.0;
    cfg.proactive = true;
    const auto model = core::build_multiversion_dspn(cfg);
    const dspn::RewardFn reward = [](const dspn::Marking& m) {
        return m[0] >= 1 ? 1.0 : 0.0;
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dspn::simulate_transient_reward(model.net, reward, 50.0, 400, 11, threads));
}
BENCHMARK(BM_EnsembleTransient)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Flight-recorder hot path. BM_FlightRecord vs BM_DetectorInference bounds
// the per-frame cost: one record() is tens of nanoseconds against an
// inference in the hundreds of microseconds, so even several events per
// frame stay far below the 2% overhead budget. BM_FlightRecordDisarmed
// measures the steady state everyone else pays: one relaxed load.
void BM_FlightRecord(benchmark::State& state) {
    obs::FlightRecorder recorder;
    recorder.set_enabled(true);
    std::uint64_t frame = 0;
    for (auto _ : state) {
        recorder.record(obs::EventKind::vote_decided, frame++, 0, 3.0, 3.0);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecord);

void BM_FlightRecordDisarmed(benchmark::State& state) {
    obs::FlightRecorder recorder;  // never armed
    std::uint64_t frame = 0;
    for (auto _ : state) {
        recorder.record(obs::EventKind::vote_decided, frame++, 0, 3.0, 3.0);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordDisarmed);

void BM_HealthEngineSecond(benchmark::State& state) {
    core::HealthEngineConfig cfg;
    cfg.timing.mttc = 8.0;
    cfg.timing.mttf = 16.0;
    cfg.timing.rejuvenation_interval = 3.0;
    core::HealthEngine engine(cfg);
    double t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        engine.advance_to(t);
        benchmark::DoNotOptimize(engine.counts());
    }
}
BENCHMARK(BM_HealthEngineSecond);

}  // namespace

BENCHMARK_MAIN();
