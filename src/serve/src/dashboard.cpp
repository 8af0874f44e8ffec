#include "mvreju/serve/dashboard.hpp"

#include <cstdio>
#include <stdexcept>

#include "mvreju/util/json.hpp"

namespace mvreju::serve::dashboard {

namespace {

std::uint64_t as_u64(const util::Json& v) {
    return static_cast<std::uint64_t>(v.number());
}

/// Fixed-width fixed-precision cell: deterministic for the golden test.
std::string fixed(double v, int width, int precision) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%*.*f", width, precision, v);
    return buf;
}

std::string padded(const std::string& s, int width) {
    std::string out = s;
    while (static_cast<int>(out.size()) < width) out += ' ';
    return out;
}

std::string right(const std::string& s, int width) {
    std::string out;
    for (int i = static_cast<int>(s.size()); i < width; ++i) out += ' ';
    return out + s;
}

}  // namespace

FleetDoc parse(const std::string& json_text) {
    const util::Json doc = util::Json::parse(json_text);
    FleetDoc out;
    out.schema = doc.at("schema").str();
    if (out.schema != "mvreju.fleet.v1")
        throw std::runtime_error("dashboard: unsupported schema " + out.schema);
    out.now_us = as_u64(doc.at("now_us"));
    out.window_us = as_u64(doc.at("window_us"));
    out.streams = as_u64(doc.at("streams"));
    out.frames = as_u64(doc.at("frames"));
    const util::Json& status = doc.at("status");
    out.decided = as_u64(status.at("decided"));
    out.skipped = as_u64(status.at("skipped"));
    out.no_output = as_u64(status.at("no_output"));
    out.shed = as_u64(status.at("shed"));
    out.error = as_u64(status.at("error"));
    out.degraded = as_u64(doc.at("degraded"));
    out.slo_breaches = as_u64(doc.at("slo_breaches"));

    const util::Json& breaches = doc.at("breach_by_stage");
    for (const auto& [name, window] : doc.at("stages").members()) {
        StageRow row;
        row.name = name;
        row.count = as_u64(window.at("count"));
        if (row.count > 0) {
            row.mean_ms = window.at("mean_ms").number();
            row.p50_ms = window.at("p50_ms").number();
            row.p90_ms = window.at("p90_ms").number();
            row.p99_ms = window.at("p99_ms").number();
            row.max_ms = window.at("max_ms").number();
        }
        if (const util::Json* b = breaches.find(name)) row.breaches = as_u64(*b);
        out.stages.push_back(std::move(row));
    }

    // Optional: only serving processes running the sampling profiler
    // publish CPU attribution.
    if (const util::Json* cpu = doc.find("cpu_by_stage")) {
        for (const auto& [name, share] : cpu->members()) {
            CpuRow row;
            row.stage = name;
            row.samples = as_u64(share.at("samples"));
            row.fraction = share.at("fraction").number();
            out.cpu_by_stage.push_back(std::move(row));
        }
    }

    for (const util::Json& entry : doc.at("worst_streams").items()) {
        StreamRow row;
        row.stream = static_cast<std::uint32_t>(as_u64(entry.at("stream")));
        row.reliability = entry.at("reliability").number();
        row.frames = as_u64(entry.at("frames"));
        row.breaches = as_u64(entry.at("breaches"));
        row.dropped = as_u64(entry.at("dropped"));
        row.p99_total_ms = entry.at("p99_total_ms").number();
        out.worst.push_back(row);
    }
    return out;
}

std::string render(const FleetDoc& doc) {
    std::string out;
    out += "fleet @ " + fixed(static_cast<double>(doc.now_us) / 1e6, 0, 3) +
           "s  window " +
           fixed(static_cast<double>(doc.window_us) / 1e6, 0, 1) +
           "s  streams " + std::to_string(doc.streams) + "  frames " +
           std::to_string(doc.frames) + "\n";
    out += "status  decided " + std::to_string(doc.decided) + "  skipped " +
           std::to_string(doc.skipped) + "  no_output " +
           std::to_string(doc.no_output) + "  shed " + std::to_string(doc.shed) +
           "  error " + std::to_string(doc.error) + "\n";
    out += "        degraded " + std::to_string(doc.degraded) +
           "  slo_breaches " + std::to_string(doc.slo_breaches) + "\n";

    // The cpu% column (share of profile samples charged to the stage's tag)
    // appears only when the document carries CPU attribution, so renders of
    // unprofiled documents — and their goldens — keep the classic layout.
    const bool with_cpu = !doc.cpu_by_stage.empty();
    auto cpu_for = [&doc](const std::string& stage) -> const CpuRow* {
        for (const CpuRow& c : doc.cpu_by_stage)
            if (c.stage == stage) return &c;
        return nullptr;
    };

    out += "\n";
    out += padded("stage", 10) + right("count", 8) + right("mean_ms", 10) +
           right("p50_ms", 10) + right("p90_ms", 10) + right("p99_ms", 10) +
           right("max_ms", 10) + right("breaches", 10) +
           (with_cpu ? right("cpu%", 8) : "") + "\n";
    for (const StageRow& s : doc.stages) {
        out += padded(s.name, 10) + right(std::to_string(s.count), 8);
        if (s.count > 0) {
            out += fixed(s.mean_ms, 10, 3) + fixed(s.p50_ms, 10, 3) +
                   fixed(s.p90_ms, 10, 3) + fixed(s.p99_ms, 10, 3) +
                   fixed(s.max_ms, 10, 3);
        } else {
            for (int c = 0; c < 5; ++c) out += right("-", 10);
        }
        out += right(std::to_string(s.breaches), 10);
        if (with_cpu) {
            const CpuRow* cpu = cpu_for(s.name);
            out += cpu ? fixed(cpu->fraction * 100.0, 8, 1) : right("-", 8);
        }
        out += "\n";
    }
    if (with_cpu) {
        // Tags with no latency row of their own (e.g. "untagged" — samples
        // landing outside every stage scope) still deserve a line.
        std::string extras;
        for (const CpuRow& c : doc.cpu_by_stage) {
            bool matched = false;
            for (const StageRow& s : doc.stages)
                if (s.name == c.stage) { matched = true; break; }
            if (matched) continue;
            if (!extras.empty()) extras += "  ";
            extras += c.stage + " " + fixed(c.fraction * 100.0, 0, 1) + "%";
        }
        if (!extras.empty()) out += "cpu other: " + extras + "\n";
    }

    out += "\n";
    out += "worst streams\n";
    out += padded("stream", 8) + right("reliability", 12) + right("frames", 8) +
           right("breaches", 10) + right("dropped", 9) +
           right("p99_total_ms", 14) + "\n";
    for (const StreamRow& s : doc.worst) {
        out += padded(std::to_string(s.stream), 8) +
               fixed(s.reliability, 12, 4) +
               right(std::to_string(s.frames), 8) +
               right(std::to_string(s.breaches), 10) +
               right(std::to_string(s.dropped), 9) +
               fixed(s.p99_total_ms, 14, 3) + "\n";
    }
    return out;
}

}  // namespace mvreju::serve::dashboard
