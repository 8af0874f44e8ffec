// Repository benchmark: one workload per run, selected by name.
//
//   perfbench --workload <serve_open_loop|av_closed_loop|dspn_sweep>
//             [--seed <n>] [--seconds <s>] [--trace <0|1>]
//
// Prints every metric of the selected mode as "name value unit" lines,
// then one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The JSON holds the same metric names for every workload; figures only
// one workload has are printed as lines above it.
// Exits 1 when a correctness check failed, 2 on bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "<serve_open_loop|av_closed_loop|dspn_sweep> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n",
                 why);
    std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') usage("--seed takes a whole number");
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0)
                usage("--seconds takes a number in (0, 600]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (options.workload.empty()) usage("--workload is required");
    return options;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) try {
    const RunOptions options = parse_args(argc, argv);
    Result result;
    if (options.workload == "serve_open_loop")
        result = run_serve(options);
    else if (options.workload == "av_closed_loop")
        result = run_av(options);
    else if (options.workload == "dspn_sweep")
        result = run_dspn(options);
    else
        usage(("unknown workload " + options.workload).c_str());
    if (!options.trace) result.add("peak_rss_mb", peak_rss_mb(), "MiB");

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        // JSON has no infinity: a latency quantile that landed on failed
        // requests reads as the largest double, never as a small number.
        double value = m.value;
        if (std::isinf(value)) {
            std::fprintf(stderr, "warning: %s is infinite\n", m.name.c_str());
            value = std::copysign(std::numeric_limits<double>::max(), value);
        } else if (std::isnan(value)) {
            std::fprintf(stderr, "warning: %s is not a number; reported as 0\n",
                         m.name.c_str());
            value = 0.0;
        }
        std::printf("%-28s %.6g %s\n", m.name.c_str(), value, m.unit.c_str());
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
