#pragma once

// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills in, the per-layer report every workload
// shares, sample statistics and the outcome hash.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mvreju/obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
    return seconds_between(from, Clock::now());
}

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measurement budget of one run
    bool trace = false;     ///< per-layer run instead of the end-to-end one
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload hands back to main(): its correctness verdict, the
/// operation counts, and the metrics of the selected mode.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }

    /// Record a correctness check; a failing one is reported on stderr and
    /// turns the whole run incorrect.
    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
};

/// Prints a workload's own figure as a "name value unit" line above the
/// JSON result. The JSON carries only the metrics every workload reports.
inline void detail(const std::string& name, double value, const std::string& unit) {
    std::printf("%-28s %.6g %s\n", name.c_str(), value, unit.c_str());
}

/// CPU time (user + system) in seconds of the process, or of the calling
/// thread with RUSAGE_THREAD.
inline double cpu_seconds(int who = RUSAGE_SELF) {
    rusage usage{};
    getrusage(who, &usage);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Per-layer metrics of the traced run, the same set for every workload.
/// The layer shares split the wall time of one unit of work (a served
/// frame, an av drive, a dspn repetition) over the repository's layers; a
/// layer the workload never calls has share 0, and residual_share is what
/// the timed calls leave unexplained. Counts are per unit of work.
struct LayerReport {
    double cpu_ms_per_op = 0.0;
    double net = 0.0;
    double serve = 0.0;
    double ml = 0.0;
    double core = 0.0;
    double av = 0.0;
    double dspn = 0.0;
    double ml_inferences_per_op = 0.0;
    double dspn_solves_per_op = 0.0;
    double gs_sweeps_per_op = 0.0;
    double serve_shed_frames = 0.0;

    void add_to(Result& result) const {
        result.add("proc.cpu_ms_per_op", cpu_ms_per_op, "ms");
        result.add("net.share", net, "fraction");
        result.add("serve.share", serve, "fraction");
        result.add("ml.share", ml, "fraction");
        result.add("core.share", core, "fraction");
        result.add("av.share", av, "fraction");
        result.add("dspn.share", dspn, "fraction");
        result.add("residual_share", 1.0 - (net + serve + ml + core + av + dspn),
                   "fraction");
        result.add("ml.inferences_per_op", ml_inferences_per_op, "count");
        result.add("dspn.solves_per_op", dspn_solves_per_op, "count");
        result.add("num.gs_sweeps_per_op", gs_sweeps_per_op, "count");
        result.add("serve.shed_frames", serve_shed_frames, "count");
    }
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
/// Samples may be +inf (a request that never succeeded).
inline double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    if (values[hi] == values[lo]) return values[lo];  // inf - inf would be NaN
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

/// FNV-1a over raw bytes; fold values in with add().
class Fnv1a {
public:
    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void add(const T& value) {
        unsigned char raw[sizeof(T)];
        std::memcpy(raw, &value, sizeof(T));
        bytes(raw, sizeof(T));
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Value of a counter in a metrics snapshot (0 when never registered).
inline std::uint64_t counter_value(const mvreju::obs::MetricsSnapshot& snapshot,
                                   const std::string& name) {
    for (const mvreju::obs::CounterValue& c : snapshot.counters)
        if (c.name == name) return c.value;
    return 0;
}

/// Calls `fn` and returns its duration in microseconds.
template <typename Fn>
double time_us(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

Result run_serve(const RunOptions& options);
Result run_av(const RunOptions& options);
Result run_dspn(const RunOptions& options);

}  // namespace perfbench
