#pragma once

// Minimal command-line argument parsing for the benchmark and example
// binaries: `--key value` and `--flag` forms only.

#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace mvreju::util {

/// A malformed or out-of-range command-line value. The message names the
/// flag, the accepted range and the offending text, e.g.
/// "--port: expected an integer in [0, 65535], got 'http'".
class ArgError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Parsed `--key value` / `--flag` style arguments.
class Args {
public:
    Args(int argc, const char* const* argv);

    [[nodiscard]] bool has(const std::string& key) const;
    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
    [[nodiscard]] double get(const std::string& key, double fallback) const;
    [[nodiscard]] int get(const std::string& key, int fallback) const;

    /// --- Typed, validated accessors ---
    /// Unlike the lenient get() overloads above (which silently fall back on
    /// garbage), these throw ArgError with a clear message when the value is
    /// present but not a number, has trailing junk, or falls outside
    /// [min, max]. Binaries catch ArgError in main() and exit with the
    /// message.
    [[nodiscard]] int get_int(const std::string& key, int fallback, int min,
                              int max) const;
    [[nodiscard]] double get_double(const std::string& key, double fallback,
                                    double min, double max) const;

    /// Shared serving flags (exporter, serve::Server, bench/client tools).
    /// `--host` must be a dotted-quad IPv4 address.
    [[nodiscard]] std::string host(const std::string& fallback = "127.0.0.1") const;
    /// `--port` in [0, 65535] (0 = ephemeral).
    [[nodiscard]] int port(int fallback) const { return get_int("port", fallback, 0, 65535); }
    /// `--max-streams` in [1, 1000000].
    [[nodiscard]] int max_streams(int fallback) const {
        return get_int("max-streams", fallback, 1, 1000000);
    }
    /// `--batch-max` in [1, 4096] (the pipeline's single-call batch cap).
    [[nodiscard]] int batch_max(int fallback) const {
        return get_int("batch-max", fallback, 1, 4096);
    }
    /// `--batch-delay-us` in [0, 10s].
    [[nodiscard]] int batch_delay_us(int fallback) const {
        return get_int("batch-delay-us", fallback, 0, 10000000);
    }

    /// Observability flag pair shared by every binary (see obs::Session):
    /// `--trace FILE` writes a Chrome trace-event JSON of the run,
    /// `--metrics FILE` writes a metrics snapshot blob. Empty when absent.
    [[nodiscard]] std::string trace_path() const { return get("trace", std::string{}); }
    [[nodiscard]] std::string metrics_path() const { return get("metrics", std::string{}); }

private:
    std::map<std::string, std::string> values_;
};

}  // namespace mvreju::util
