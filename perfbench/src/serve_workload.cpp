// serve_open_loop: an in-process serve::Server on loopback with the
// `resilient_service --serve-streams` defaults (batch_max 64, 2 ms batch
// delay, 1 inference thread, 50 ms SLO, shedding on, default model set on
// the scalar kernels), driven by one poll-based generator over 4
// connections, one stream each.
//
// Phases of the end-to-end run:
//  - set-up: model set, server start, connections and a fixed-count
//    warm-up, repeated kSetupRepeats times (median reported);
//  - saturated, on each set-up's server: a bounded number of frames kept in
//    flight, so the inference thread never idles while latency stays
//    inside the SLO -> rate_per_s, the median completion rate over the
//    half-second bins of every server's saturated phase;
//  - nominal, on the last server: frames pipelined on a fixed schedule well
//    below capacity (camera streams do not wait for replies), every latency
//    timed from the frame's due time, so a generator or server stall is
//    charged to every frame it delays -> p50_ms.
// One unit of work is one served frame.
// The traced run replaces the saturated phase by an open-loop capacity
// search: the offered rate grows until a phase misses the SLO or its
// latency grows, then bisects. Every phase ends only when all its frames
// are answered, and a settle run before each phase refills the overload
// controller's breach window, so one phase cannot inflate the next.
//
// Correctness: every frame id is answered exactly once, no response is an
// error, the server reports zero protocol errors, and Server::stats().frames
// equals the frames sent.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "mvreju/ml/workspace.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/serve/protocol.hpp"
#include "mvreju/serve/server.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/util/rng.hpp"

namespace perfbench {
namespace {

using namespace mvreju;

constexpr int kConnections = 4;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kWarmupFrames = 2000;
constexpr std::size_t kWarmupWindow = 64;   ///< frames in flight during warm-up
constexpr std::size_t kSettleFrames = 64;   ///< one overload-controller window
constexpr std::size_t kSettleWindow = 4;
constexpr std::size_t kImagePool = 64;
constexpr double kSloMs = 50.0;
/// Fixed nominal rate, about a third of the saturated completion rate on
/// the reference 4-vCPU machine: a frame mostly waits on the batch
/// deadline, so a faster kernel shows in rate_per_s, not here.
constexpr double kNominalRate = 1200.0;
/// Frames kept in flight (16 per stream) while measuring capacity: enough
/// to keep the inference thread busy, few enough to stay well inside the
/// SLO, so overload shedding never changes the work.
constexpr std::size_t kSaturationWindow = 64;
constexpr double kRateBin = 0.5;  ///< seconds per completion-rate bin
/// Share of the run budget each set-up's saturated phase gets.
constexpr double kSaturatedShare = 0.2;
/// Frames one server may be sent in total; a phase ends early if it would
/// exceed this (several times what one server is sent on the reference
/// machine).
constexpr std::size_t kFrameCapacity = 300'000;
constexpr int kSearchPhases = 6;
constexpr double kSearchGrowth = 1.6;
/// A phase meets the SLO when at most this share of its frames misses
/// (error, shed, unanswered or over budget) or is degraded...
constexpr double kMissAllowance = 0.01;
/// ...and its last quarter's mean latency exceeds its first quarter's by
/// at most this share of the SLO (no growing backlog).
constexpr double kBacklogGrowth = 0.2;

serve::Server::Options server_options() {
    serve::Server::Options options;  // resilient_service --serve-streams
    options.batch_max = 64;
    options.batch_delay_us = 2000;
    options.infer_threads = 1;
    options.slo_budget_ms = kSloMs;
    options.shedding = true;
    return options;
}

serve::ModelSet make_models() {
    serve::ModelSetConfig config;
    config.backend = "scalar";  // pinned: MVREJU_BACKEND must not change it
    return serve::make_model_set(config);
}

struct FrameRecord {
    Clock::time_point due{};
    Clock::time_point sent{};
    Clock::time_point reply{};
    int answers = 0;
    serve::ResponseStatus status = serve::ResponseStatus::error;
    bool degraded = false;
    bool has_trace = false;
    std::array<std::uint32_t, serve::kStageCount> stage_us{};
};

/// One phase's frames, as id range [first, last).
struct Phase {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    double rate = 0.0;  ///< offered rate; 0 for windowed phases
    bool timed_out = false;
};

/// Per-phase outcome, computed from the frame records.
struct PhaseSummary {
    std::size_t sent = 0;
    std::size_t answered = 0;
    std::size_t failed = 0;     ///< error, shed or unanswered
    std::size_t over_slo = 0;   ///< answered with a vote, but too late
    std::size_t degraded = 0;
    std::vector<double> latency_ms;  ///< per frame sent; +inf when failed
    std::vector<double> late_ms;     ///< generator send lateness per frame
    /// Server-side completion rate: in-SLO votes per second in each
    /// kRateBin-long bin of the phase's sending window, and their median.
    std::vector<double> bin_fps;
    double completion_fps = 0.0;
    double backlog_growth_ms = 0.0;

    [[nodiscard]] std::size_t misses() const { return failed + over_slo; }
    [[nodiscard]] bool meets_slo() const {
        const double allowance = kMissAllowance * static_cast<double>(sent);
        return sent > 0 && static_cast<double>(misses()) <= allowance &&
               static_cast<double>(degraded) <= allowance &&
               backlog_growth_ms <= kBacklogGrowth * kSloMs;
    }
};

double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Poll-based open-loop load generator over kConnections loopback streams.
class Generator {
public:
    /// The frame table is allocated and touched up front for `capacity`
    /// frames, so the generator's own memory does not grow with the number
    /// of frames a faster server lets it send. `own_cpu`: the generator has
    /// a CPU to itself, so a paced phase may busy-poll.
    Generator(int port, const serve::ModelSet& set, std::uint64_t seed,
              std::size_t capacity, bool own_cpu)
        : spin_(own_cpu) {
        records_.resize(capacity);
        records_.clear();
        util::Rng rng(seed);
        for (std::size_t k = 0; k < kImagePool; ++k) {
            serve::RequestFrame request;
            request.image.resize(set.sample_size());
            for (float& v : request.image) v = static_cast<float>(rng.uniform());
            plain_.push_back(serve::encode_request(request));
            request.want_trace = true;
            traced_.push_back(serve::encode_request(request));
        }
        for (int c = 0; c < kConnections; ++c) streams_.push_back(connect_to(port));
    }
    ~Generator() {
        for (const Stream& s : streams_) ::close(s.fd);
    }
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    /// Send `count` frames, due at `rate` per second when rate > 0, else
    /// as fast as `window` frames in flight allow (and, when `send_seconds`
    /// is set, only for that long); return once every frame sent is
    /// answered (or a generous timeout passes).
    Phase run(std::size_t count, double rate, std::size_t window, bool trace,
              double send_seconds = 0.0) {
        Phase phase;
        phase.first = records_.size() + 1;
        phase.rate = rate;
        count = std::min(count, records_.capacity() - records_.size());
        const double nominal_s = rate > 0.0 ? static_cast<double>(count) / rate : 0.0;
        const auto start = Clock::now() + std::chrono::milliseconds(1);
        const auto after = [&](double seconds) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        };
        const auto deadline = after(nominal_s + send_seconds + 20.0);
        const auto send_until =
            send_seconds > 0.0 ? after(send_seconds) : Clock::time_point::max();
        const auto due_of = [&](std::size_t k) {
            return after(static_cast<double>(k) / rate);
        };
        std::size_t k = 0;
        std::vector<pollfd> fds(streams_.size());
        while (true) {
            auto now = Clock::now();
            while (k < count && now < send_until &&
                   (rate > 0.0 ? due_of(k) <= now : outstanding_ < window)) {
                FrameRecord record;
                record.due = rate > 0.0 ? due_of(k) : now;
                record.sent = now;
                records_.push_back(record);
                const std::uint64_t id = records_.size();
                const std::string& wire =
                    (trace ? traced_ : plain_)[(id - 1) % kImagePool];
                Stream& s = streams_[k % streams_.size()];
                const std::size_t at = s.out.size();
                s.out += wire;
                for (int b = 0; b < 8; ++b)  // frame id, u64 little endian
                    s.out[at + 4 + static_cast<std::size_t>(b)] =
                        static_cast<char>((id >> (8 * b)) & 0xff);
                ++outstanding_;
                ++k;
            }
            for (Stream& s : streams_) flush(s);
            if ((k == count || now >= send_until) && outstanding_ == 0) break;
            if (now >= deadline) {
                phase.timed_out = true;
                break;
            }
            // A paced phase busy-polls on the generator's own CPU: on a
            // loaded host a sleeping generator wakes up to milliseconds
            // late, and that lateness, not the server, would set p50_ms.
            // A windowed phase sleeps until a reply arrives. ppoll sleeps
            // to the microsecond; poll() would round a sub-millisecond wait
            // up and send every frame late.
            double wait_s = 0.05;
            if (rate > 0.0 && spin_)
                wait_s = 0.0;
            else if (rate > 0.0 && k < count)
                wait_s = std::max(0.0, seconds_between(now, due_of(k)));
            timespec timeout{};
            timeout.tv_sec = static_cast<time_t>(wait_s);
            timeout.tv_nsec =
                static_cast<long>((wait_s - static_cast<double>(timeout.tv_sec)) * 1e9);
            for (std::size_t i = 0; i < streams_.size(); ++i) {
                fds[i].fd = streams_[i].fd;
                fds[i].events = static_cast<short>(
                    POLLIN | (streams_[i].out_off < streams_[i].out.size() ? POLLOUT : 0));
                fds[i].revents = 0;
            }
            const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
            if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
            for (std::size_t i = 0; i < streams_.size(); ++i)
                if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(streams_[i]);
        }
        phase.last = records_.size() + 1;
        return phase;
    }

    [[nodiscard]] PhaseSummary summarize(const Phase& phase) const {
        PhaseSummary s;
        if (phase.first >= phase.last) return s;
        const Clock::time_point first_sent = records_[phase.first - 1].sent;
        const Clock::time_point last_sent = records_[phase.last - 2].sent;
        const auto bins = static_cast<std::size_t>(
            seconds_between(first_sent, last_sent) / kRateBin);
        std::vector<double> per_bin(bins, 0.0);
        for (std::uint64_t id = phase.first; id < phase.last; ++id) {
            const FrameRecord& r = records_[id - 1];
            ++s.sent;
            s.late_ms.push_back(ms_between(r.due, r.sent));
            const bool voted = r.answers == 1 && r.status != serve::ResponseStatus::error &&
                               r.status != serve::ResponseStatus::shed;
            s.answered += r.answers >= 1;
            if (!voted) {
                ++s.failed;
                s.latency_ms.push_back(std::numeric_limits<double>::infinity());
                continue;
            }
            const double latency = ms_between(r.due, r.reply);
            s.latency_ms.push_back(latency);
            s.degraded += r.degraded;
            if (latency > kSloMs) {
                ++s.over_slo;
                continue;
            }
            const double at = seconds_between(first_sent, r.reply) / kRateBin;
            if (at < static_cast<double>(bins)) per_bin[static_cast<std::size_t>(at)] += 1.0;
        }
        for (const double count : per_bin) s.bin_fps.push_back(count / kRateBin);
        s.completion_fps = median(s.bin_fps);
        const std::size_t quarter = s.latency_ms.size() / 4;
        if (quarter > 0) {
            const std::vector<double> head(s.latency_ms.begin(),
                                           s.latency_ms.begin() + quarter);
            const std::vector<double> tail(s.latency_ms.end() - quarter,
                                           s.latency_ms.end());
            s.backlog_growth_ms = mean(tail) - mean(head);  // inf when tail failed
        }
        return s;
    }

    [[nodiscard]] const std::vector<FrameRecord>& records() const { return records_; }
    [[nodiscard]] std::size_t sent() const { return records_.size(); }
    [[nodiscard]] std::size_t violations() const { return violations_; }

private:
    struct Stream {
        int fd = -1;
        std::string out;
        std::size_t out_off = 0;
        std::string in;
    };

    static Stream connect_to(int port) {
        Stream s;
        s.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
        if (s.fd < 0) throw std::runtime_error("socket failed");
        const int one = 1;
        ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
            errno != EINPROGRESS) {
            ::close(s.fd);
            throw std::runtime_error("connect failed");
        }
        pollfd p{s.fd, POLLOUT, 0};
        if (::poll(&p, 1, 5000) != 1) {
            ::close(s.fd);
            throw std::runtime_error("connect timed out");
        }
        return s;
    }

    static void flush(Stream& s) {
        while (s.out_off < s.out.size()) {
            const ssize_t n = ::send(s.fd, s.out.data() + s.out_off,
                                     s.out.size() - s.out_off, MSG_NOSIGNAL);
            if (n > 0) {
                s.out_off += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            throw std::runtime_error("send failed");
        }
        if (s.out_off == s.out.size()) {
            s.out.clear();
            s.out_off = 0;
        }
    }

    void receive(Stream& s) {
        char buf[65536];
        while (true) {
            const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
            if (n > 0) {
                s.in.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            throw std::runtime_error("server closed a stream");
        }
        const auto now = Clock::now();
        std::size_t pos = 0;
        while (s.in.size() - pos >= 4) {
            const auto* p = reinterpret_cast<const unsigned char*>(s.in.data() + pos);
            const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                      (static_cast<std::uint32_t>(p[1]) << 8) |
                                      (static_cast<std::uint32_t>(p[2]) << 16) |
                                      (static_cast<std::uint32_t>(p[3]) << 24);
            if (len > 1024) throw std::runtime_error("oversized response frame");
            if (s.in.size() - pos < 4 + len) break;
            serve::ResponseFrame response;
            if (!serve::decode_response(s.in.data() + pos + 4, len, response)) {
                ++violations_;
            } else if (response.frame_id == 0 || response.frame_id > records_.size()) {
                ++violations_;  // an id never sent, or an error frame
            } else {
                FrameRecord& r = records_[response.frame_id - 1];
                if (++r.answers == 1) {
                    --outstanding_;
                    r.reply = now;
                    r.status = response.status;
                    r.degraded = response.degraded;
                    r.has_trace = response.has_trace;
                    r.stage_us = response.stage_us;
                } else {
                    ++violations_;  // answered twice
                }
            }
            pos += 4 + len;
        }
        s.in.erase(0, pos);
    }

    std::vector<std::string> plain_;
    std::vector<std::string> traced_;
    std::vector<Stream> streams_;
    std::vector<FrameRecord> records_;  // index = frame id - 1
    std::size_t outstanding_ = 0;
    std::size_t violations_ = 0;
    bool spin_ = false;
};

/// Keeps the generator off the server's CPUs: the service thread inherits
/// the creating thread's affinity, so the server starts while the calling
/// thread is limited to all CPUs but one, and the generator then takes
/// that one. Without it the scheduler often co-locates the two threads of
/// this request-reply ping-pong, and the generator's work is charged to the
/// server's throughput. No-op on a single CPU.
class Placement {
public:
    Placement() {
        if (sched_getaffinity(0, sizeof all_, &all_) != 0 || CPU_COUNT(&all_) < 2) return;
        server_ = all_;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &all_)) continue;
            CPU_ZERO(&generator_);
            CPU_SET(cpu, &generator_);
            CPU_CLR(cpu, &server_);
            split_ = true;
            break;
        }
    }
    /// Run `start` (which creates the server's threads) on the server CPUs,
    /// then move the calling thread to the generator CPU.
    template <typename Fn>
    void start_server(Fn&& start) const {
        if (split_) sched_setaffinity(0, sizeof server_, &server_);
        start();
        if (split_) sched_setaffinity(0, sizeof generator_, &generator_);
    }
    /// Whether the generator has a CPU the server's threads never use.
    [[nodiscard]] bool own_cpu() const { return split_; }
    ~Placement() {
        if (split_) sched_setaffinity(0, sizeof all_, &all_);
    }
    Placement(const Placement&) = delete;
    Placement& operator=(const Placement&) = delete;

private:
    cpu_set_t all_{};
    cpu_set_t server_{};
    cpu_set_t generator_{};
    bool split_ = false;
};

/// The system under test plus its load: model set, server, connections.
struct Rig {
    serve::ModelSet set;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<Generator> gen;

    Rig(std::uint64_t seed, const Placement& placement) : set(make_models()) {
        server = std::make_unique<serve::Server>(set, server_options());
        std::string error;
        bool started = false;
        placement.start_server([&] { started = server->start(&error); });
        if (!started) throw std::runtime_error("server start: " + error);
        gen = std::make_unique<Generator>(server->port(), set, seed, kFrameCapacity,
                                          placement.own_cpu());
    }
    ~Rig() {
        gen.reset();
        server->stop();
    }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;
};

/// CPU time of the server's threads: the process's, less the calling
/// thread's, which runs the generator.
double server_cpu_seconds() { return cpu_seconds() - cpu_seconds(RUSAGE_THREAD); }

void print_phase(const char* name, const Phase& phase, const PhaseSummary& s) {
    std::printf("  %-10s offered %7.1f/s: sent %zu, succeeded %zu, failed %zu, "
                "over-SLO %zu, degraded %zu, p50 %.2f ms, p99 %.2f ms, "
                "completed %.1f/s, late p99 %.3f ms max %.3f ms%s%s\n",
                name, phase.rate, s.sent, s.sent - s.misses(), s.failed, s.over_slo,
                s.degraded, quantile(s.latency_ms, 0.5), quantile(s.latency_ms, 0.99),
                s.completion_fps, quantile(s.late_ms, 0.99), quantile(s.late_ms, 1.0),
                s.meets_slo() ? "" : "  [misses SLO]",
                phase.timed_out ? "  [timed out]" : "");
}

/// Stage-annex percentiles of a traced phase, and each layer's share of
/// the frames' due-to-reply latency: net is the client round trip minus the
/// server's total stage time; what is left over is the generator's lateness.
void report_stages(const Generator& gen, const Phase& phase, LayerReport& layers) {
    constexpr const char* kStageMetric[] = {"serve.parse_us", "serve.queue_us",
                                            "serve.dispatch_us", "ml.infer_us",
                                            "core.vote_us", "serve.tx_us"};
    std::vector<std::vector<double>> stages(6);
    std::vector<double> stage_sum(6, 0.0);
    std::vector<double> wire;
    double wire_sum = 0.0;
    double latency_sum = 0.0;
    for (std::uint64_t id = phase.first; id < phase.last; ++id) {
        const FrameRecord& r = gen.records()[id - 1];
        if (r.answers != 1 || !r.has_trace) continue;
        for (std::size_t st = 0; st < 6; ++st) {
            stages[st].push_back(static_cast<double>(r.stage_us[st]));
            stage_sum[st] += static_cast<double>(r.stage_us[st]);
        }
        const double rtt_us = 1e3 * ms_between(r.sent, r.reply);
        const double total_us = static_cast<double>(
            r.stage_us[static_cast<std::size_t>(serve::Stage::total)]);
        wire.push_back(rtt_us - total_us);
        wire_sum += rtt_us - total_us;
        latency_sum += 1e3 * ms_between(r.due, r.reply);
    }
    for (std::size_t st = 0; st < 6; ++st) {
        detail(std::string(kStageMetric[st]) + ".p50", quantile(stages[st], 0.5), "us");
        detail(std::string(kStageMetric[st]) + ".p99", quantile(stages[st], 0.99), "us");
    }
    detail("net.wire_us.p50", quantile(wire, 0.5), "us");
    detail("net.wire_us.p99", quantile(wire, 0.99), "us");
    if (latency_sum <= 0.0) return;
    const auto share = [&](serve::Stage st) {
        return stage_sum[static_cast<std::size_t>(st)] / latency_sum;
    };
    layers.net = wire_sum / latency_sum;
    layers.serve = share(serve::Stage::parse) + share(serve::Stage::queue) +
                   share(serve::Stage::dispatch) + share(serve::Stage::tx);
    layers.ml = share(serve::Stage::infer);
    layers.core = share(serve::Stage::vote);
}

/// gemm_flops per second of logits_batch at the served batch size, timed
/// from outside over every version of the model set.
double replay_gflops(const serve::ModelSet& set, double batch_mean) {
    const auto n = static_cast<std::size_t>(std::max(1.0, std::round(batch_mean)));
    std::vector<std::size_t> shape{n};
    shape.insert(shape.end(), set.input_shape.begin(), set.input_shape.end());
    ml::Tensor batch(shape, 0.5f);
    ml::Workspace ws;
    const std::string flops_name = "ml.infer.gemm_flops";
    const std::uint64_t before = counter_value(obs::metrics().snapshot(), flops_name);
    const auto t0 = Clock::now();
    int reps = 0;
    while (reps < 3 || seconds_since(t0) < 0.5) {
        for (const ml::Sequential* model : set.pointers.healthy)
            ws.give(model->logits_batch(batch, ws, 1));
        ++reps;
    }
    const double seconds = seconds_since(t0);
    const std::uint64_t flops = counter_value(obs::metrics().snapshot(), flops_name) - before;
    return static_cast<double>(flops) / seconds * 1e-9;
}

/// Correctness over everything one server saw: every frame answered
/// exactly once, no malformed or unknown response, zero protocol errors,
/// and the server counted exactly the frames sent.
void check_rig(const Rig& rig, Result& result) {
    const Generator& gen = *rig.gen;
    std::size_t unanswered = 0;
    for (const FrameRecord& r : gen.records()) unanswered += r.answers == 0;
    const serve::Server::Stats stats = rig.server->stats();
    result.check(unanswered == 0, std::to_string(unanswered) + " frames unanswered");
    result.check(gen.violations() == 0,
                 std::to_string(gen.violations()) +
                     " responses were malformed, duplicated or named no sent frame");
    result.check(stats.protocol_errors == 0, "server reports zero protocol errors");
    result.check(stats.frames == gen.sent(),
                 "Server::stats().frames (" + std::to_string(stats.frames) +
                     ") equals frames sent (" + std::to_string(gen.sent()) + ")");
}

}  // namespace

Result run_serve(const RunOptions& options) {
    Result result;

    const auto run_phase = [&](Generator& gen, const char* name, std::size_t count,
                               double rate, std::size_t window, bool trace,
                               double send_seconds) {
        gen.run(kSettleFrames, 0.0, kSettleWindow, false);  // refill the breach window
        const Phase phase = gen.run(count, rate, window, trace, send_seconds);
        const PhaseSummary s = gen.summarize(phase);
        print_phase(name, phase, s);
        result.attempted += s.sent;
        result.failed += s.failed;
        return std::make_pair(phase, s);
    };
    const auto nominal_count = [&](double share) {
        return static_cast<std::size_t>(kNominalRate * share * options.seconds);
    };

    // Set-up, repeated: model set, server start, connections, warm-up. In
    // the end-to-end run each set-up's server then runs a saturated phase,
    // and rate_per_s is the median over the rate bins of all of them: the
    // shared host's speed wanders over seconds, so many short bins spread
    // over the run give a steadier median than one long phase.
    const Placement placement;
    std::unique_ptr<Rig> rig;
    std::vector<double> setup_s;
    std::vector<double> saturated_fps;  // rate bins of every saturated phase
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (rig) check_rig(*rig, result);
        rig.reset();
        const auto t0 = Clock::now();
        rig = std::make_unique<Rig>(options.seed, placement);
        const Phase warm = rig->gen->run(kWarmupFrames, 0.0, kWarmupWindow, false);
        setup_s.push_back(seconds_since(t0));
        const PhaseSummary s = rig->gen->summarize(warm);
        result.check(s.answered == s.sent && !warm.timed_out,
                     "every warm-up frame is answered");
        if (options.trace) continue;
        const auto [saturated, ss] =
            run_phase(*rig->gen, "saturated", kFrameCapacity, 0.0, kSaturationWindow,
                      false, kSaturatedShare * options.seconds);
        saturated_fps.insert(saturated_fps.end(), ss.bin_fps.begin(), ss.bin_fps.end());
        // Not a correctness check. When a phase stops sending, the replies
        // still in flight wait ~40 ms for the client's delayed ACK (the
        // server's sockets leave Nagle on), so about 60 frames per phase
        // miss the SLO and a short phase can exceed the 1% allowance.
        if (!ss.meets_slo())
            std::fprintf(stderr, "warning: a saturated phase missed the SLO\n");
    }
    Generator& gen = *rig->gen;
    std::printf("serve_open_loop: set-up %.3f s (median of %d)\n", median(setup_s),
                kSetupRepeats);

    if (!options.trace) {
        const auto [nominal, ns] =
            run_phase(gen, "nominal", nominal_count(0.3), kNominalRate, 0, false, 0.0);
        detail("max_rate_fps", median(saturated_fps), "frames/s");
        detail("p99_ms", quantile(ns.latency_ms, 0.99), "ms");
        detail("miss_ratio", static_cast<double>(ns.misses()) / static_cast<double>(ns.sent),
               "fraction");
        detail("degraded_ratio",
               static_cast<double>(ns.degraded) / static_cast<double>(ns.sent), "fraction");
        result.add("setup_s", median(setup_s), "s");
        result.add("p50_ms", quantile(ns.latency_ms, 0.5), "ms");
        result.add("rate_per_s", median(saturated_fps), "1/s");
    } else {
        // Per-layer run: an untraced nominal phase (the end-to-end run's
        // nominal phase, and the tracing-overhead baseline), the same phase
        // with every request asking for the stage annex, then the open-loop
        // capacity search.
        const auto [plain, ps] =
            run_phase(gen, "untraced", nominal_count(0.3), kNominalRate, 0, false, 0.0);
        gen.run(kSettleFrames, 0.0, kSettleWindow, false);
        const obs::MetricsSnapshot before = obs::metrics().snapshot();
        const double cpu_before = server_cpu_seconds();
        const Phase traced = gen.run(nominal_count(0.3), kNominalRate, 0, true);
        const double cpu = server_cpu_seconds() - cpu_before;
        const obs::MetricsSnapshot after = obs::metrics().snapshot();
        const PhaseSummary ts = gen.summarize(traced);
        print_phase("traced", traced, ts);
        result.attempted += ts.sent;
        result.failed += ts.failed;

        const auto delta = [&](const char* name) {
            return static_cast<double>(counter_value(after, name) -
                                       counter_value(before, name));
        };
        const double frames = static_cast<double>(ts.sent);
        LayerReport layers;
        report_stages(gen, traced, layers);
        const double flushes =
            delta("serve.batch.flushes_full") + delta("serve.batch.flushes_deadline");
        const double batch_mean = flushes > 0 ? delta("serve.batch.frames") / flushes : 0.0;
        detail("serve.batch_mean", batch_mean, "frames");
        detail("serve.full_flush_share",
               flushes > 0 ? delta("serve.batch.flushes_full") / flushes : 0.0, "fraction");
        detail("ml.gflops_per_s", replay_gflops(rig->set, batch_mean), "GFLOP/s");
        detail("serve.shed_degraded", delta("serve.shed.degraded"), "count");
        detail("serve.shed_dropped", delta("serve.shed.dropped"), "count");
        detail("serve.slo_breach", delta("serve.slo_breach"), "count");
        detail("serve.protocol_errors", delta("serve.protocol_errors"), "count");
        const double plain_frames = static_cast<double>(ps.sent);
        detail("p99_ms", quantile(ps.latency_ms, 0.99), "ms");
        detail("miss_ratio", static_cast<double>(ps.misses()) / plain_frames, "fraction");
        detail("degraded_ratio", static_cast<double>(ps.degraded) / plain_frames, "fraction");
        detail("gen.late_ms.p99", quantile(ts.late_ms, 0.99), "ms");
        detail("gen.late_ms.max", quantile(ts.late_ms, 1.0), "ms");
        detail("serve.trace_overhead_ms",
               quantile(ts.latency_ms, 0.5) - quantile(ps.latency_ms, 0.5), "ms");
        layers.cpu_ms_per_op = 1e3 * cpu / frames;
        layers.ml_inferences_per_op = delta("ml.infer.images") / frames;
        layers.serve_shed_frames = delta("serve.shed.degraded") + delta("serve.shed.dropped");
        layers.add_to(result);

        // Capacity search: grow until a phase misses the SLO, then bisect
        // between the best passing and the lowest failing offered rate.
        // Every phase drains before the next, and a settle run refills the
        // overload controller's window, so one phase cannot inflate the next.
        const double phase_s = 0.4 * options.seconds / kSearchPhases;
        double lo = 0.0;
        double hi = 0.0;
        double best_rate = 0.0;
        double rate = kNominalRate;
        for (int i = 0; i < kSearchPhases; ++i) {
            const auto count = static_cast<std::size_t>(std::max(1.0, rate * phase_s));
            const auto [phase, s] = run_phase(gen, "search", count, rate, 0, false, 0.0);
            if (s.meets_slo()) {
                lo = rate;
                best_rate = s.completion_fps;
            } else {
                hi = rate;
            }
            rate = hi == 0.0 ? lo * kSearchGrowth : 0.5 * (lo + hi);
        }
        detail("serve.search_rate_fps", best_rate, "frames/s");
    }

    check_rig(*rig, result);
    return result;
}

}  // namespace perfbench
