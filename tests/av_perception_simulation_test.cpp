#include <gtest/gtest.h>

#include <filesystem>

#include "mvreju/av/simulation.hpp"

namespace mvreju::av {
namespace {

/// Small, fast detector set shared by the whole suite (trained once).
const DetectorSet& test_detectors() {
    static const DetectorSet set = [] {
        SensorConfig sensor;
        DetectorTrainOptions opts;
        opts.train_samples = 1200;
        opts.eval_samples = 400;
        opts.epochs = 4;
        opts.cache_dir = std::filesystem::temp_directory_path() / "mvreju_test_detectors";
        return prepare_detectors(sensor, opts);
    }();
    return set;
}

TEST(Detectors, HealthyModelsBeatChanceByFar) {
    const DetectorSet& set = test_detectors();
    ASSERT_EQ(set.healthy.size(), 3u);
    for (double acc : set.healthy_accuracy) EXPECT_GT(acc, 0.6);  // chance = 1/8
}

TEST(Detectors, CompromisedVariantsAreDegradedAndOptimistic) {
    const DetectorSet& set = test_detectors();
    ASSERT_EQ(set.compromised.size(), 3u);
    for (std::size_t m = 0; m < 3; ++m) {
        ASSERT_FALSE(set.compromised[m].empty());
        for (const auto& variant : set.compromised[m]) {
            EXPECT_LT(variant.accuracy, set.healthy_accuracy[m]);
            EXPECT_GE(variant.optimism, 0.5);
        }
    }
}

TEST(Detectors, CacheRoundTripReproducesModels) {
    const DetectorSet& set = test_detectors();
    SensorConfig sensor;
    DetectorTrainOptions opts;
    opts.train_samples = 1200;
    opts.eval_samples = 400;
    opts.epochs = 4;
    opts.cache_dir = std::filesystem::temp_directory_path() / "mvreju_test_detectors";
    const DetectorSet reloaded = prepare_detectors(sensor, opts);
    for (std::size_t m = 0; m < 3; ++m)
        EXPECT_DOUBLE_EQ(reloaded.healthy_accuracy[m], set.healthy_accuracy[m]);
}

TEST(Detect, ReturnsValidBucket) {
    const DetectorSet& set = test_detectors();
    SensorConfig sensor;
    util::Rng rng(4);
    ml::Tensor grid = render_grid({{0.0, 0.0}, 2.25, 0.95, 0.0}, {}, sensor, rng);
    const Detection d = detect(set.healthy[0], grid);
    EXPECT_GE(d.bucket, 0);
    EXPECT_LT(d.bucket, kDistanceBuckets);
}

TEST(DetectionNear, AdjacentBucketsAgree) {
    DetectionNear near;
    EXPECT_TRUE(near({3}, {3}));
    EXPECT_TRUE(near({3}, {4}));
    EXPECT_TRUE(near({4}, {3}));
    EXPECT_FALSE(near({3}, {5}));
    EXPECT_FALSE(near({0}, {7}));
}

TEST(RunScenario, ValidatesConfig) {
    const auto towns = make_towns();
    const DetectorSet& set = test_detectors();
    ScenarioConfig cfg;
    cfg.versions = 0;
    EXPECT_THROW((void)run_scenario(towns[0].routes[0], set, cfg), std::invalid_argument);
    cfg.versions = 4;  // valid range, but only 3 versions prepared
    EXPECT_THROW((void)run_scenario(towns[0].routes[0], set, cfg), std::invalid_argument);
    cfg.versions = 3;
    cfg.dt = 0.0;
    EXPECT_THROW((void)run_scenario(towns[0].routes[0], set, cfg), std::invalid_argument);
}

TEST(RunScenario, DeterministicUnderSeed) {
    const auto towns = make_towns();
    ScenarioConfig cfg;
    cfg.horizon = 8.0;
    cfg.seed = 5;
    const RunMetrics a = run_scenario(towns[0].routes[0], test_detectors(), cfg);
    const RunMetrics b = run_scenario(towns[0].routes[0], test_detectors(), cfg);
    EXPECT_EQ(a.total_frames, b.total_frames);
    EXPECT_EQ(a.collision_frames, b.collision_frames);
    EXPECT_EQ(a.skipped_frames, b.skipped_frames);
    EXPECT_EQ(a.decided_frames, b.decided_frames);
    EXPECT_EQ(a.route_completed, b.route_completed);
}

TEST(RunScenario, FrameAccountingAddsUp) {
    const auto towns = make_towns();
    ScenarioConfig cfg;
    cfg.horizon = 10.0;
    cfg.seed = 6;
    const RunMetrics m = run_scenario(towns[1].routes[0], test_detectors(), cfg);
    EXPECT_EQ(m.total_frames,
              m.decided_frames + m.skipped_frames + m.no_output_frames);
    EXPECT_EQ(m.total_frames, 200);
    EXPECT_GE(m.route_completed, 0.0);
    EXPECT_LE(m.route_completed, 1.0);
    EXPECT_GT(m.inferences, 0u);
    EXPECT_GT(m.perception_wall_seconds, 0.0);
}

TEST(RunScenario, HealthyPerceptionMakesProgressWithoutCollisions) {
    const auto towns = make_towns();
    ScenarioConfig cfg;
    cfg.mttc = 1e9;  // modules never degrade
    cfg.rejuvenation = false;
    cfg.seed = 7;
    const RunMetrics m = run_scenario(towns[2].routes[0], test_detectors(), cfg);
    EXPECT_EQ(m.collision_frames, 0);
    EXPECT_FALSE(m.collided());
    EXPECT_GT(m.route_completed, 0.3);
}

TEST(RunScenario, SingleVersionRunsWithOneModule) {
    const auto towns = make_towns();
    ScenarioConfig cfg;
    cfg.versions = 1;
    cfg.horizon = 10.0;
    cfg.mttc = 1e9;
    cfg.rejuvenation = false;  // keep the lone module up for exact accounting
    cfg.seed = 8;
    const RunMetrics m = run_scenario(towns[0].routes[0], test_detectors(), cfg);
    // One inference per frame.
    EXPECT_EQ(m.inferences, static_cast<std::size_t>(m.total_frames));
    EXPECT_EQ(m.skipped_frames, 0);  // a single module can't diverge
}

TEST(RunScenario, FaultsDegradeSafetyWithoutRejuvenation) {
    // Aggregate over a few seeds: no-rejuvenation runs must show collisions
    // while the fault-free baseline (above) shows none.
    const auto towns = make_towns();
    int collision_frames = 0;
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        ScenarioConfig cfg;
        cfg.rejuvenation = false;
        cfg.seed = seed;
        collision_frames +=
            run_scenario(towns[3].routes[1], test_detectors(), cfg).collision_frames;
    }
    EXPECT_GT(collision_frames, 0);
}

TEST(RunScenario, RejuvenationReducesCollisionFrames) {
    const auto towns = make_towns();
    int with = 0;
    int without = 0;
    for (std::size_t r = 0; r < 4; ++r) {
        const auto& route = towns[r].routes[1];
        for (std::uint64_t seed = 50; seed < 55; ++seed) {
            ScenarioConfig cfg;
            cfg.seed = seed;
            cfg.rejuvenation = true;
            with += run_scenario(route, test_detectors(), cfg).collision_frames;
            cfg.rejuvenation = false;
            without += run_scenario(route, test_detectors(), cfg).collision_frames;
        }
    }
    EXPECT_LT(with, without);
}

TEST(Detectors, FiveVersionPoolPreparable) {
    SensorConfig sensor;
    DetectorTrainOptions opts;
    opts.versions = 5;
    opts.train_samples = 1200;
    opts.eval_samples = 400;
    opts.epochs = 4;
    opts.cache_dir = std::filesystem::temp_directory_path() / "mvreju_test_detectors5";
    const DetectorSet set = prepare_detectors(sensor, opts);
    ASSERT_EQ(set.healthy.size(), 5u);
    ASSERT_EQ(set.compromised.size(), 5u);
    for (double acc : set.healthy_accuracy) EXPECT_GT(acc, 0.5);
    DetectorTrainOptions bad = opts;
    bad.versions = 6;
    EXPECT_THROW((void)prepare_detectors(sensor, bad), std::invalid_argument);

    // And the scenario accepts the 5-version configuration.
    const auto towns = make_towns();
    ScenarioConfig cfg;
    cfg.versions = 5;
    cfg.horizon = 6.0;
    cfg.voting = core::VotingScheme::strict_majority;
    cfg.seed = 31;
    const RunMetrics m = run_scenario(towns[0].routes[0], set, cfg);
    EXPECT_EQ(m.total_frames, 120);
    // Even fleet sizes are legal too.
    ScenarioConfig four = cfg;
    four.versions = 4;
    EXPECT_EQ(run_scenario(towns[0].routes[0], set, four).total_frames, 120);
    ScenarioConfig invalid = cfg;
    invalid.versions = 6;
    EXPECT_THROW((void)run_scenario(towns[0].routes[0], set, invalid),
                 std::invalid_argument);
}

TEST(RunScenario, HealthStatsReported) {
    const auto towns = make_towns();
    ScenarioConfig cfg;
    cfg.seed = 9;
    const RunMetrics m = run_scenario(towns[0].routes[0], test_detectors(), cfg);
    EXPECT_GT(m.health_stats.proactive_triggers, 5u);  // ~33 s / 3 s interval
}

}  // namespace
}  // namespace mvreju::av
