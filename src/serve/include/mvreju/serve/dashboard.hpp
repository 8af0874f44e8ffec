#pragma once

// Fleet dashboard: parse a /fleet telemetry document (the JSON rendered by
// serve::FleetStats::to_json and served by obs::Exporter) back into
// structured form and render the text dashboard the tools/fleet_top CLI
// shows. Mirrors the postmortem tool/library split: everything testable
// lives here — the rendering contract is golden-tested
// (tests/serve_dashboard_test.cpp) against a seeded virtual-time fleet —
// and the CLI is a thin main() over these functions plus an HTTP poll loop.

#include <cstdint>
#include <string>
#include <vector>

namespace mvreju::serve::dashboard {

/// One pipeline stage's fleet-merged window, plus its breach attribution.
struct StageRow {
    std::string name;
    std::uint64_t count = 0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t breaches = 0;  ///< SLO breaches attributed to this stage
};

/// One stage tag's CPU share from the optional "cpu_by_stage" block (only
/// present when the serving process ran with the sampling profiler on).
struct CpuRow {
    std::string stage;  ///< profiler tag ("parse", "infer", ..., "untagged")
    std::uint64_t samples = 0;
    double fraction = 0.0;  ///< share of all profile samples, in [0, 1]
};

/// One entry of the worst-streams ranking.
struct StreamRow {
    std::uint32_t stream = 0;
    double reliability = 1.0;
    std::uint64_t frames = 0;
    std::uint64_t breaches = 0;
    std::uint64_t dropped = 0;
    double p99_total_ms = 0.0;
};

/// A parsed "mvreju.fleet.v1" document.
struct FleetDoc {
    std::string schema;
    std::uint64_t now_us = 0;
    std::uint64_t window_us = 0;
    std::uint64_t streams = 0;
    std::uint64_t frames = 0;
    std::uint64_t decided = 0;
    std::uint64_t skipped = 0;
    std::uint64_t no_output = 0;
    std::uint64_t shed = 0;
    std::uint64_t error = 0;
    std::uint64_t degraded = 0;
    std::uint64_t slo_breaches = 0;
    std::vector<StageRow> stages;      ///< document order (pipeline order)
    std::vector<CpuRow> cpu_by_stage;  ///< empty when profiling was off
    std::vector<StreamRow> worst;      ///< ranking order
};

/// Parse a /fleet document; throws std::runtime_error on malformed input
/// or a schema other than "mvreju.fleet.v1".
[[nodiscard]] FleetDoc parse(const std::string& json_text);

/// Render the dashboard as deterministic plain text (fixed-width columns,
/// no colour, no wall-clock) — the fleet_top screen body and the golden
/// test's subject.
[[nodiscard]] std::string render(const FleetDoc& doc);

}  // namespace mvreju::serve::dashboard
