// Tests for the deterministic synthetic fleet and the overload controller:
// run-to-run determinism, bit-identical outcomes for batched vs unbatched
// serving of the same seeded inputs, load shedding under overload with
// recovery when load drops, and the hysteresis of OverloadControl itself.

#include <gtest/gtest.h>

#include <stdexcept>

#include "mvreju/serve/overload.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/serve/synthetic.hpp"

namespace {

using namespace mvreju;

const serve::ModelSet& shared_set() {
    static const serve::ModelSet set = serve::make_model_set();
    return set;
}

serve::FleetOptions small_fleet() {
    serve::FleetOptions options;
    options.streams = 24;
    options.frame_rate_hz = 50.0;
    options.frames_per_stream = 12;
    options.seed = 5;
    options.batch_max = 16;
    options.batch_delay_us = 3000;
    options.shedding = false;  // equivalence configuration
    options.slo_budget_ms = 1e9;
    return options;
}

TEST(ServeFleetTest, DeterministicUnderSeed) {
    const serve::FleetResult a = serve::run_fleet(shared_set(), small_fleet());
    const serve::FleetResult b = serve::run_fleet(shared_set(), small_fleet());
    EXPECT_EQ(a.output_hash, b.output_hash);
    EXPECT_EQ(a.decided, b.decided);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.no_output, b.no_output);
    EXPECT_EQ(a.slo_breaches, b.slo_breaches);
    EXPECT_EQ(a.batch_flushes, b.batch_flushes);
    EXPECT_EQ(a.frames, 24u * 12u);
    EXPECT_EQ(a.decided + a.skipped + a.no_output + a.dropped, a.frames);

    serve::FleetOptions different = small_fleet();
    different.seed = 6;
    const serve::FleetResult c = serve::run_fleet(shared_set(), different);
    EXPECT_NE(a.output_hash, c.output_hash);
}

TEST(ServeFleetTest, BatchedOutcomesBitIdenticalToUnbatched) {
    // The tentpole equivalence gate: cross-stream batching must not change
    // a single frame's outcome. batch_max = 1 is the unbatched reference —
    // every inference runs alone — and the outcome hash covers status,
    // label, agreeing count and functional-module count of every frame.
    const serve::FleetResult batched = serve::run_fleet(shared_set(), small_fleet());

    serve::FleetOptions unbatched = small_fleet();
    unbatched.batch_max = 1;
    const serve::FleetResult reference =
        serve::run_fleet(shared_set(), unbatched);

    EXPECT_EQ(batched.output_hash, reference.output_hash);
    EXPECT_EQ(batched.decided, reference.decided);
    EXPECT_EQ(batched.skipped, reference.skipped);
    EXPECT_EQ(batched.no_output, reference.no_output);
    // And it genuinely batched: fewer flushes than frames were served.
    EXPECT_LT(batched.batch_flushes, reference.batch_flushes);
    EXPECT_GT(batched.mean_batch, 1.0);
}

TEST(ServeFleetTest, MultiThreadFlushMatchesSerial) {
    // logits_batch is bit-identical for any num_threads; so is the fleet.
    const serve::FleetResult serial = serve::run_fleet(shared_set(), small_fleet());
    serve::FleetOptions threaded = small_fleet();
    threaded.infer_threads = 4;
    const serve::FleetResult parallel = serve::run_fleet(shared_set(), threaded);
    EXPECT_EQ(serial.output_hash, parallel.output_hash);
}

TEST(ServeFleetTest, OverloadShedsAndLightLoadDoesNot) {
    // Saturating virtual service times trip the SLO controller: a large
    // share of frames must go out degraded (single-version) or dropped.
    serve::FleetOptions heavy;
    heavy.streams = 64;
    heavy.frame_rate_hz = 100.0;
    heavy.frames_per_stream = 30;
    heavy.seed = 9;
    heavy.batch_max = 8;
    heavy.batch_delay_us = 2000;
    heavy.service_base_us = 4000.0;   // engine saturates immediately
    heavy.service_per_frame_us = 500.0;
    heavy.slo_budget_ms = 5.0;
    heavy.shedding = true;
    const serve::FleetResult overload = serve::run_fleet(shared_set(), heavy);
    EXPECT_GT(overload.shed_rate, 0.2);
    EXPECT_GT(overload.degraded, 0u);
    EXPECT_GT(overload.slo_breaches, 0u);
    EXPECT_GT(overload.p99_virtual_ms, heavy.slo_budget_ms);

    // The same fleet at a light load breaches nothing and sheds nothing.
    serve::FleetOptions light = heavy;
    light.frame_rate_hz = 5.0;
    light.service_base_us = 100.0;
    light.service_per_frame_us = 10.0;
    const serve::FleetResult relaxed = serve::run_fleet(shared_set(), light);
    EXPECT_EQ(relaxed.shed_rate, 0.0);
    EXPECT_EQ(relaxed.degraded, 0u);
    EXPECT_EQ(relaxed.dropped, 0u);
}

TEST(ServeFleetTest, HardCapDropsFrames) {
    serve::FleetOptions options = small_fleet();
    options.shedding = true;
    options.slo_budget_ms = 5.0;
    options.batch_delay_us = 1'000'000;  // batches pile up...
    options.batch_max = 1024;
    options.max_inflight = 8;            // ...into a tiny inflight budget
    const serve::FleetResult result = serve::run_fleet(shared_set(), options);
    EXPECT_GT(result.dropped, 0u);
    EXPECT_EQ(result.decided + result.skipped + result.no_output + result.dropped,
              result.frames);
}

TEST(ServeFleetTest, SynchronousCompletionDoesNotLeakInflight) {
    // With batch_max = 1 every frame completes synchronously inside its own
    // submit loop — the arrangement that once default-inserted an empty
    // inflight entry per frame via operator[] after the erase. The genuine
    // inflight population never exceeds one here, so a small hard cap must
    // never trip over hundreds of frames; leaked entries would saturate it
    // and drop nearly everything.
    serve::FleetOptions options = small_fleet();
    options.batch_max = 1;
    options.max_inflight = 8;
    const serve::FleetResult result = serve::run_fleet(shared_set(), options);
    EXPECT_EQ(result.dropped, 0u);
    EXPECT_EQ(result.decided + result.skipped + result.no_output, result.frames);
}

TEST(ServeFleetTest, ModelSetAcceptsOnlyTheOneKernel) {
    // One GEMM kernel exists; the config field only tolerates the names that
    // mean it, so a stale request for another kernel fails loudly.
    serve::ModelSetConfig config;
    for (const char* name : {"", "scalar"}) {
        config.backend = name;
        EXPECT_NO_THROW((void)serve::make_model_set(config)) << name;
    }
    for (const char* name : {"avx2", "cuda"}) {
        config.backend = name;
        EXPECT_THROW((void)serve::make_model_set(config), std::invalid_argument)
            << name;
    }
}

TEST(ServeOverloadControlTest, HysteresisEntersAndExits) {
    serve::OverloadControl::Options options;
    options.window = 10;
    options.enter_breach_fraction = 0.5;
    options.exit_breach_fraction = 0.1;
    serve::OverloadControl control(options);

    // A couple of early breaches are not enough evidence (half a window).
    control.record(true);
    control.record(true);
    EXPECT_FALSE(control.overloaded());

    for (int i = 0; i < 8; ++i) control.record(true);
    EXPECT_TRUE(control.overloaded());

    // Healthy frames above the exit threshold keep it latched (hysteresis)...
    for (int i = 0; i < 6; ++i) control.record(false);
    EXPECT_TRUE(control.overloaded());
    // ...until the breach fraction falls to the exit bound.
    for (int i = 0; i < 4; ++i) control.record(false);
    EXPECT_FALSE(control.overloaded());
}

}  // namespace
