// Golden tests for the fleet dashboard renderer behind tools/fleet_top:
// parse() accepts exactly the /fleet v1 schema, render() is a pure
// deterministic function of the document (the property that makes
// `fleet_top --from saved.json` goldenable), and hand-built documents
// render the exact header/status/table lines we promise operators.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mvreju/serve/dashboard.hpp"
#include "mvreju/serve/fleet_stats.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/serve/synthetic.hpp"

namespace {

using namespace mvreju;

serve::FleetStats::Options local_options() {
    serve::FleetStats::Options options;
    options.publish_metrics = false;
    return options;
}

serve::FrameTrace make_trace(std::uint64_t start_us, std::uint64_t parse_us,
                             std::uint64_t queue_us, std::uint64_t dispatch_us,
                             std::uint64_t infer_us, std::uint64_t vote_us,
                             std::uint64_t tx_us) {
    serve::FrameTrace trace;
    std::uint64_t at = start_us;
    trace.stamp(serve::TracePoint::rx, at);
    trace.stamp(serve::TracePoint::enqueue, at += parse_us);
    trace.stamp(serve::TracePoint::formed, at += queue_us);
    trace.stamp(serve::TracePoint::infer_start, at += dispatch_us);
    trace.stamp(serve::TracePoint::infer_end, at += infer_us);
    trace.stamp(serve::TracePoint::vote, at += vote_us);
    trace.stamp(serve::TracePoint::tx, at += tx_us);
    return trace;
}

/// Two streams, one breaching frame: small enough to pin exact lines.
serve::FleetStats make_small_fleet_stats() {
    serve::FleetStats stats(local_options());

    serve::FrameObservation clean;
    clean.stream = 1;
    clean.frame = 1;
    clean.trace = make_trace(1'001, 100, 200, 50, 800, 30, 20);
    clean.status = serve::ResponseStatus::decided;
    clean.latency_ms = 1.2;
    clean.slo_budget_ms = 5.0;
    stats.observe(clean, 2'000'000);

    serve::FrameObservation breaching;
    breaching.stream = 2;
    breaching.frame = 2;
    breaching.trace = make_trace(2'001, 100, 50, 50, 9'000, 30, 20);
    breaching.status = serve::ResponseStatus::decided;
    breaching.latency_ms = 9.25;
    breaching.slo_budget_ms = 5.0;
    stats.observe(breaching, 3'000'000);

    return stats;
}

/// Test-local copies of the renderer's column rules: pinning the widths
/// here makes the golden rows explicit instead of hand-counted spaces.
std::string pad_right(const std::string& s, std::size_t width) {
    std::string out = s;
    while (out.size() < width) out += ' ';
    return out;
}

std::string pad_left(const std::string& s, std::size_t width) {
    std::string out;
    while (out.size() + s.size() < width) out += ' ';
    return out + s;
}

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        lines.push_back(text.substr(start, end - start));
        if (end == std::string::npos) break;
        start = end + 1;
    }
    return lines;
}

// These goldens depend on FrameTrace stamping, which compiles out under
// -DMVREJU_OBS=OFF (digests then stay empty).
#ifndef MVREJU_OBS_DISABLED

TEST(ServeDashboardTest, HandBuiltDocumentRendersExactLines) {
    const serve::FleetStats stats = make_small_fleet_stats();
    const std::string json = stats.to_json(3'999'999, /*include_meta=*/false);

    const serve::dashboard::FleetDoc doc = serve::dashboard::parse(json);
    EXPECT_EQ(doc.schema, "mvreju.fleet.v1");
    EXPECT_EQ(doc.streams, 2u);
    EXPECT_EQ(doc.frames, 2u);
    EXPECT_EQ(doc.decided, 2u);
    EXPECT_EQ(doc.slo_breaches, 1u);
    ASSERT_EQ(doc.stages.size(), serve::kStageCount);
    EXPECT_EQ(doc.stages[0].name, "parse");
    EXPECT_EQ(doc.stages[0].count, 2u);
    ASSERT_EQ(doc.worst.size(), 2u);
    EXPECT_EQ(doc.worst[0].stream, 2u);  // the breaching stream ranks worst
    EXPECT_EQ(doc.worst[0].breaches, 1u);

    const std::vector<std::string> lines = lines_of(serve::dashboard::render(doc));
    ASSERT_GE(lines.size(), 8u);
    EXPECT_EQ(lines[0],
              "fleet @ 4.000s  window 4.0s  streams 2  frames 2");
    EXPECT_EQ(lines[1],
              "status  decided 2  skipped 0  no_output 0  shed 0  error 0");
    EXPECT_EQ(lines[2], "        degraded 0  slo_breaches 1");
    // The stage table header is fixed-width; downstream tooling and humans
    // both key off these exact columns.
    EXPECT_EQ(lines[4], pad_right("stage", 10) + pad_left("count", 8) +
                            pad_left("mean_ms", 10) + pad_left("p50_ms", 10) +
                            pad_left("p90_ms", 10) + pad_left("p99_ms", 10) +
                            pad_left("max_ms", 10) + pad_left("breaches", 10));
    EXPECT_EQ(lines[5].substr(0, 18), pad_right("parse", 10) + pad_left("2", 8));
    EXPECT_NE(lines[5].find(pad_left("0.100", 10)), std::string::npos);  // 100 us
}

TEST(ServeDashboardTest, RenderIsDeterministic) {
    // Two independently-built identical stats: same bytes out, end to end.
    const std::string a = serve::dashboard::render(serve::dashboard::parse(
        make_small_fleet_stats().to_json(3'999'999, false)));
    const std::string b = serve::dashboard::render(serve::dashboard::parse(
        make_small_fleet_stats().to_json(3'999'999, false)));
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

#endif  // MVREJU_OBS_DISABLED

TEST(ServeDashboardTest, SeededFleetRoundTripsByteIdentical) {
    // The full pipeline `fleet_top --from` exercises: a seeded virtual-time
    // fleet's document parses and renders to the same bytes on every rerun.
    serve::FleetOptions options;
    options.streams = 12;
    options.frame_rate_hz = 40.0;
    options.frames_per_stream = 5;
    options.seed = 13;
    options.batch_max = 16;
    options.batch_delay_us = 3000;
    options.shedding = false;
    options.slo_budget_ms = 1e9;
    const serve::ModelSet set = serve::make_model_set();

    serve::FleetStats first;
    (void)serve::run_fleet(set, options, &first);
    serve::FleetStats second;
    (void)serve::run_fleet(set, options, &second);

    const std::string render_a = serve::dashboard::render(
        serve::dashboard::parse(first.to_json(1'000'000, false)));
    const std::string render_b = serve::dashboard::render(
        serve::dashboard::parse(second.to_json(1'000'000, false)));
    EXPECT_EQ(render_a, render_b);
    EXPECT_NE(render_a.find("fleet @ 1.000s"), std::string::npos);
    EXPECT_NE(render_a.find("worst streams"), std::string::npos);
    for (std::size_t s = 0; s < serve::kStageCount; ++s)
        EXPECT_NE(render_a.find(serve::stage_name(static_cast<serve::Stage>(s))),
                  std::string::npos);
}

#ifndef MVREJU_OBS_DISABLED

TEST(ServeDashboardTest, UnreachedStagesRenderDashes) {
    serve::FleetStats stats(local_options());
    serve::FrameObservation shed;
    shed.stream = 4;
    shed.frame = 1;
    shed.trace.stamp(serve::TracePoint::rx, 5'000);
    shed.trace.stamp(serve::TracePoint::tx, 6'000);
    shed.status = serve::ResponseStatus::shed;
    stats.observe(shed, 10'000);

    const std::string render = serve::dashboard::render(
        serve::dashboard::parse(stats.to_json(10'000, false)));
    // Interior stages were never reached: count 0, quantile cells dashed.
    std::string infer_row = pad_right("infer", 10) + pad_left("0", 8);
    for (int c = 0; c < 5; ++c) infer_row += pad_left("-", 10);
    infer_row += pad_left("0", 10);
    EXPECT_NE(render.find(infer_row + "\n"), std::string::npos);
    // total was bounded (rx -> tx, 1000 us), so it has real cells.
    EXPECT_NE(render.find(pad_right("total", 10) + pad_left("1", 8) +
                          pad_left("1.000", 10)),
              std::string::npos);
}

TEST(ServeDashboardTest, CpuAttributionAddsColumnOnlyWhenPresent) {
    serve::FleetStats stats(local_options());

    // No cpu_by_stage block: the classic layout — no cpu% header cell.
    const std::string plain = serve::dashboard::render(
        serve::dashboard::parse(stats.to_json(10'000, false)));
    EXPECT_EQ(plain.find("cpu%"), std::string::npos);

    // With attribution: a cpu% column keyed by stage name, "-" for stages
    // the profiler never tagged, and a footer for tags with no latency row.
    stats.set_cpu_by_stage(
        {{"infer", 90, 0.75}, {"parse", 18, 0.15}, {"untagged", 12, 0.1}});
    const serve::dashboard::FleetDoc doc =
        serve::dashboard::parse(stats.to_json(10'000, false));
    ASSERT_EQ(doc.cpu_by_stage.size(), 3u);
    EXPECT_EQ(doc.cpu_by_stage[0].stage, "infer");
    EXPECT_EQ(doc.cpu_by_stage[0].samples, 90u);
    EXPECT_DOUBLE_EQ(doc.cpu_by_stage[0].fraction, 0.75);

    const std::string render = serve::dashboard::render(doc);
    EXPECT_NE(render.find(pad_left("cpu%", 8) + "\n"), std::string::npos);
    EXPECT_NE(render.find(pad_left("75.0", 8)), std::string::npos);   // infer
    EXPECT_NE(render.find(pad_left("15.0", 8)), std::string::npos);   // parse
    // queue has latency cells but no CPU tag: dash in the cpu column.
    const std::size_t queue_at = render.find("\nqueue");
    ASSERT_NE(queue_at, std::string::npos);
    const std::size_t queue_end = render.find('\n', queue_at + 1);
    EXPECT_EQ(render.substr(queue_end - 8, 8), pad_left("-", 8));
    // untagged samples have no stage row: reported in the footer instead.
    EXPECT_NE(render.find("cpu other: untagged 10.0%"), std::string::npos);
}

#endif  // MVREJU_OBS_DISABLED

TEST(ServeDashboardTest, ParseRejectsForeignDocuments) {
    EXPECT_THROW(serve::dashboard::parse("{\"schema\": \"bogus.v9\"}"),
                 std::runtime_error);
    EXPECT_THROW(serve::dashboard::parse("not json at all"), std::exception);
    EXPECT_THROW(serve::dashboard::parse("{\"now_us\": 3}"), std::exception);
}

}  // namespace
