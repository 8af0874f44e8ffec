#include "mvreju/serve/fleet_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "mvreju/obs/buildinfo.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/obs.hpp"

namespace mvreju::serve {

namespace {

// Shortest-roundtrip double rendering, same as the metrics/exporter JSON:
// %.17g is bit-faithful, so a rerun of the same seeded fleet produces the
// same bytes.
std::string fmt_double(double v) {
    if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

constexpr const char* kStatusNames[] = {"decided", "skipped", "no_output",
                                        "shed", "error"};

}  // namespace

FleetStats::FleetStats(const Options& options) : options_(options) {
    digest_options_.slot_width_us = options_.slot_width_us;
    digest_options_.slots = options_.slots;
}

FleetStats::StreamState& FleetStats::stream_for(std::uint32_t stream) {
    const auto it = std::lower_bound(
        streams_.begin(), streams_.end(), stream,
        [](const StreamState& s, std::uint32_t id) { return s.stream < id; });
    if (it != streams_.end() && it->stream == stream) return *it;
    StreamState state;
    state.stream = stream;
    state.stage.reserve(kStageCount);
    for (std::size_t s = 0; s < kStageCount; ++s)
        state.stage.emplace_back(digest_options_);
    return *streams_.insert(it, std::move(state));
}

void FleetStats::observe(const FrameObservation& obs, std::uint64_t now_us) {
    ++frames_;
    const auto status = static_cast<std::size_t>(obs.status);
    if (status < by_status_.size()) ++by_status_[status];
    if (obs.degraded) ++degraded_;

    StreamState& state = stream_for(obs.stream);
    ++state.frames;
    if (obs.status == ResponseStatus::shed) ++state.dropped;

    const bool breach = obs.slo_budget_ms > 0.0 && obs.latency_ms > obs.slo_budget_ms;

    // Stage durations: per-stream windowed digests always (they feed the
    // deterministic /fleet document), the process-wide serve.stage.*
    // histograms and the flight recorder only when publishing is on.
    const bool publish = options_.publish_metrics && obs::enabled();
    for (std::size_t s = 0; s < kStageCount; ++s) {
        const auto stage = static_cast<Stage>(s);
        if (!obs.trace.stage_bounded(stage)) continue;
        const double ms = static_cast<double>(obs.trace.stage_us(stage)) / 1000.0;
        state.stage[s].record(now_us, ms);
        if (publish) {
            // One registry lookup per stage for the process lifetime; the
            // handles are stable, so the static array is safe to reuse.
            static obs::Histogram* hist[kStageCount] = {};
            if (hist[s] == nullptr)
                hist[s] = &obs::metrics().histogram(
                    std::string("serve.stage.") + stage_name(stage),
                    obs::HistogramBounds::exponential(0.25, 2.0, 12));
            hist[s]->record(ms);
        }
    }

    if (breach) {
        ++breaches_;
        ++state.breaches;
        const Stage dominant = obs.trace.dominant_stage();
        ++breach_by_stage_[static_cast<std::size_t>(dominant)];
        if (publish) {
            const double stage_ms =
                static_cast<double>(obs.trace.stage_us(dominant)) / 1000.0;
            MVREJU_OBS_EVENT_AT(now_us * 1000, obs::EventKind::breach_stage,
                                obs.frame, obs.stream,
                                static_cast<double>(dominant), stage_ms);
        }
    }

    // Reliability EWMA: a clean decided frame scores 1, a degraded /
    // breaching / safe-skipped frame 0.5, a frame with no useful output 0.
    double quality = 1.0;
    if (obs.degraded || breach || obs.status == ResponseStatus::skipped)
        quality = 0.5;
    if (obs.status == ResponseStatus::shed ||
        obs.status == ResponseStatus::no_output ||
        obs.status == ResponseStatus::error)
        quality = 0.0;
    state.reliability = (1.0 - options_.ewma_alpha) * state.reliability +
                        options_.ewma_alpha * quality;
}

obs::HistogramValue FleetStats::stage_window(Stage stage,
                                             std::uint64_t now_us) const {
    const auto index = static_cast<std::size_t>(stage);
    obs::WindowedDigest merged(digest_options_);
    for (const StreamState& s : streams_) merged.merge(s.stage[index]);
    return merged.window(now_us);
}

FleetStats::StreamSummary FleetStats::summarize(const StreamState& s,
                                                std::uint64_t now_us) const {
    StreamSummary out;
    out.stream = s.stream;
    out.reliability = s.reliability;
    out.frames = s.frames;
    out.breaches = s.breaches;
    out.dropped = s.dropped;
    const obs::HistogramValue total =
        s.stage[static_cast<std::size_t>(Stage::total)].window(now_us);
    out.p99_total_ms = total.count > 0 ? total.quantile(0.99) : 0.0;
    return out;
}

std::vector<FleetStats::StreamSummary> FleetStats::worst_streams(
    std::uint64_t now_us) const {
    std::vector<StreamSummary> all;
    all.reserve(streams_.size());
    for (const StreamState& s : streams_) all.push_back(summarize(s, now_us));
    std::sort(all.begin(), all.end(),
              [](const StreamSummary& a, const StreamSummary& b) {
                  if (a.reliability != b.reliability)
                      return a.reliability < b.reliability;
                  if (a.breaches != b.breaches) return a.breaches > b.breaches;
                  return a.stream < b.stream;  // total order => deterministic
              });
    if (all.size() > options_.top_k) all.resize(options_.top_k);
    return all;
}

std::string FleetStats::to_json(std::uint64_t now_us, bool include_meta) const {
    std::string out = "{\n\"schema\": \"mvreju.fleet.v1\"";
    out += ",\n\"now_us\": " + std::to_string(now_us);
    out += ",\n\"window_us\": " +
           std::to_string(digest_options_.slot_width_us *
                          static_cast<std::uint64_t>(digest_options_.slots));
    out += ",\n\"streams\": " + std::to_string(streams_.size());
    out += ",\n\"frames\": " + std::to_string(frames_);
    out += ",\n\"status\": {";
    for (std::size_t i = 0; i < by_status_.size(); ++i) {
        if (i) out += ", ";
        out += std::string("\"") + kStatusNames[i] +
               "\": " + std::to_string(by_status_[i]);
    }
    out += "}";
    out += ",\n\"degraded\": " + std::to_string(degraded_);
    out += ",\n\"slo_breaches\": " + std::to_string(breaches_);

    out += ",\n\"stages\": {";
    for (std::size_t s = 0; s < kStageCount; ++s) {
        const auto stage = static_cast<Stage>(s);
        const obs::HistogramValue w = stage_window(stage, now_us);
        if (s) out += ",";
        out += std::string("\n  \"") + stage_name(stage) + "\": {";
        out += "\"count\": " + std::to_string(w.count);
        if (w.count > 0) {
            out += ", \"mean_ms\": " + fmt_double(w.mean());
            out += ", \"p50_ms\": " + fmt_double(w.quantile(0.5));
            out += ", \"p90_ms\": " + fmt_double(w.quantile(0.9));
            out += ", \"p99_ms\": " + fmt_double(w.quantile(0.99));
            out += ", \"max_ms\": " + fmt_double(w.max);
        }
        out += "}";
    }
    out += "\n}";

    out += ",\n\"breach_by_stage\": {";
    for (std::size_t s = 0; s + 1 < kStageCount; ++s) {  // total never wins
        if (s) out += ", ";
        out += std::string("\"") + stage_name(static_cast<Stage>(s)) +
               "\": " + std::to_string(breach_by_stage_[s]);
    }
    out += "}";

    if (!cpu_by_stage_.empty()) {
        out += ",\n\"cpu_by_stage\": {";
        for (std::size_t i = 0; i < cpu_by_stage_.size(); ++i) {
            const StageCpuShare& share = cpu_by_stage_[i];
            if (i) out += ", ";
            out += "\"" + share.stage + "\": {\"fraction\": " +
                   fmt_double(share.fraction) +
                   ", \"samples\": " + std::to_string(share.samples) + "}";
        }
        out += "}";
    }

    out += ",\n\"worst_streams\": [";
    const std::vector<StreamSummary> worst = worst_streams(now_us);
    for (std::size_t i = 0; i < worst.size(); ++i) {
        const StreamSummary& w = worst[i];
        out += i ? ",\n  {" : "\n  {";
        out += "\"stream\": " + std::to_string(w.stream);
        out += ", \"reliability\": " + fmt_double(w.reliability);
        out += ", \"frames\": " + std::to_string(w.frames);
        out += ", \"breaches\": " + std::to_string(w.breaches);
        out += ", \"dropped\": " + std::to_string(w.dropped);
        out += ", \"p99_total_ms\": " + fmt_double(w.p99_total_ms);
        out += "}";
    }
    out += "\n]";

    // Build stamp: always present (unlike the fuller "meta" block) so every
    // fleet snapshot — including golden-test renders — names the binary that
    // produced it. Constant within a build, so byte-determinism holds.
    const obs::RunMetadata build = obs::run_metadata();
    out += ",\n\"build\": {\"git_sha\": \"" + build.git_sha +
           "\", \"build_type\": \"" + build.build_type + "\"}";

    if (include_meta) out += ",\n\"meta\": " + obs::run_metadata_json();
    out += "\n}\n";
    return out;
}

void FleetStats::clear() {
    streams_.clear();
    frames_ = 0;
    by_status_.fill(0);
    degraded_ = 0;
    breaches_ = 0;
    breach_by_stage_.fill(0);
}

}  // namespace mvreju::serve
