#include "mvreju/serve/synthetic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/serve/batcher.hpp"
#include "mvreju/serve/fleet_stats.hpp"
#include "mvreju/serve/trace.hpp"
#include "mvreju/util/rng.hpp"

namespace mvreju::serve {

namespace {

/// FNV-1a, the repo's standard checksum for determinism gates.
struct Fnv1a {
    std::uint64_t hash = 1469598103934665603ull;
    void add_bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ull;
        }
    }
    template <typename T>
    void add(T value) {
        add_bytes(&value, sizeof value);
    }
};

struct Arrival {
    std::uint64_t t_us = 0;
    int stream = 0;
    int frame = 0;
    /// Min-heap order; ties break on (stream, frame) for determinism.
    bool operator>(const Arrival& other) const {
        if (t_us != other.t_us) return t_us > other.t_us;
        if (stream != other.stream) return stream > other.stream;
        return frame > other.frame;
    }
};

struct Outcome {
    std::uint8_t status = 0;  ///< ResponseStatus numeric values
    std::uint8_t degraded = 0;
    std::int32_t label = -1;
    std::uint16_t agreeing = 0;
    std::uint32_t functional = 0;
};

struct InFlight {
    int stream = 0;
    int frame = 0;
    core::FramePlan plan;
    std::vector<std::optional<int>> proposals;
    int remaining = 0;
    std::uint64_t arrival_us = 0;
    std::uint64_t completed_us = 0;
    bool degraded = false;
    FrameTrace trace;
};

class FleetRun {
public:
    FleetRun(const ModelSet& set, const FleetOptions& options, FleetStats* stats)
        : set_(set),
          options_(options),
          stats_(stats),
          overload_(options.overload),
          // now_fn stays null: the fleet costs inference with its own
          // virtual service model and substitutes those stamps itself.
          batcher_(DynamicBatcher::Options{options.batch_max,
                                           options.batch_delay_us,
                                           options.infer_threads,
                                           set.input_shape,
                                           {}}),
          outcomes_(static_cast<std::size_t>(options.streams) *
                    static_cast<std::size_t>(options.frames_per_stream)) {
        Session::Options session_options;
        session_options.health = options.health;
        session_options.scheme = options.scheme;
        sessions_.reserve(static_cast<std::size_t>(options.streams));
        const util::Rng base(options.seed);
        period_us_ = 1e6 / options.frame_rate_hz;
        for (int s = 0; s < options.streams; ++s) {
            sessions_.emplace_back(static_cast<std::uint64_t>(s), set,
                                   session_options);
            util::Rng rng = base.split(static_cast<std::uint64_t>(s));
            // Per-stream phase offset desynchronises the fleet; per-frame
            // samples follow from the same substream, so any run with these
            // options sees byte-identical inputs in byte-identical order.
            const double phase = rng.uniform(0.0, period_us_);
            streams_.push_back(StreamState{std::move(rng), phase});
            arrivals_.push(Arrival{stamp_us(phase), s, 0});
        }
    }

    FleetResult run() {
        const auto wall_start = std::chrono::steady_clock::now();
        while (!arrivals_.empty()) {
            const Arrival next = arrivals_.top();
            // Flush every batch whose max-delay deadline falls before the
            // next arrival: virtual time advances to the deadline.
            const auto deadline = batcher_.next_deadline_us();
            if (deadline && *deadline <= next.t_us) {
                flush_time_us_ = *deadline;
                batcher_.flush_due(*deadline);
                continue;
            }
            arrivals_.pop();
            handle_arrival(next);
        }
        if (batcher_.pending() > 0) {
            flush_time_us_ = last_arrival_us_;
            batcher_.flush_all(last_arrival_us_);
        }
        const auto wall_end = std::chrono::steady_clock::now();

        FleetResult result = tally();
        result.wall_ms =
            std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
        return result;
    }

private:
    struct StreamState {
        util::Rng rng;
        double phase_us = 0.0;
    };

    static std::uint64_t stamp_us(double t) {
        return static_cast<std::uint64_t>(std::llround(t));
    }

    void handle_arrival(const Arrival& arrival) {
        // Profiler stage tag: everything between arrival and submit is
        // "parse" work (sample synthesis, planning); the batcher's own
        // "infer" scope takes over inside a synchronous flush, and
        // finalize's "vote" scope covers completion — so the bench's CPU
        // attribution exercises the same tag set as the socket server.
        MVREJU_PROFILE_STAGE(profile_scope, "parse");
        last_arrival_us_ = arrival.t_us;
        StreamState& stream = streams_[static_cast<std::size_t>(arrival.stream)];
        if (arrival.frame + 1 < options_.frames_per_stream) {
            const double t =
                stream.phase_us + (arrival.frame + 1) * period_us_;
            arrivals_.push(Arrival{stamp_us(t), arrival.stream, arrival.frame + 1});
        }

        // The sample is drawn *before* any shed decision so that the
        // per-stream random sequence — and therefore every later frame — is
        // independent of load, batching and shedding.
        sample_.resize(set_.sample_size());
        for (float& v : sample_) v = static_cast<float>(stream.rng.uniform());

        Session& session = sessions_[static_cast<std::size_t>(arrival.stream)];
        const double t_s = static_cast<double>(arrival.t_us) * 1e-6;
        core::FramePlan plan = session.begin_frame(t_s);
        const std::uint64_t t_ns = arrival.t_us * 1000;

        Outcome& outcome =
            outcomes_[static_cast<std::size_t>(arrival.stream) *
                          static_cast<std::size_t>(options_.frames_per_stream) +
                      static_cast<std::size_t>(arrival.frame)];
        outcome.functional = static_cast<std::uint32_t>(plan.functional_modules);

        if (plan.functional_modules == 0) {
            const SessionResult result = session.complete_frame(
                plan, std::vector<std::optional<int>>(plan.states.size()));
            outcome.status = 2;  // no_output
            outcome.agreeing = static_cast<std::uint16_t>(result.agreeing);
            overload_.record(false);
            if (stats_ != nullptr) {
                FrameObservation fo;
                fo.stream = static_cast<std::uint32_t>(arrival.stream);
                fo.frame = static_cast<std::uint64_t>(arrival.frame);
                fo.trace.stamp(TracePoint::rx, arrival.t_us);
                fo.trace.stamp(TracePoint::vote, arrival.t_us);
                fo.trace.stamp(TracePoint::tx, arrival.t_us);
                fo.status = ResponseStatus::no_output;
                stats_->observe(fo, arrival.t_us);
            }
            return;
        }

        if (inflight_.size() >= options_.max_inflight) {
            // Hard cap: refuse outright, count it as a breach so the
            // controller keeps shedding while the backlog drains.
            static obs::Counter& dropped =
                obs::metrics().counter("serve.shed.dropped");
            dropped.add(1);
            MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::load_shed, frame_seq_,
                                static_cast<std::uint32_t>(arrival.stream), 2.0,
                                overload_.breach_fraction());
            outcome.status = 3;  // shed
            overload_.record(true);
            ++frame_seq_;
            if (stats_ != nullptr) {
                FrameObservation fo;
                fo.stream = static_cast<std::uint32_t>(arrival.stream);
                fo.frame = static_cast<std::uint64_t>(arrival.frame);
                fo.trace.stamp(TracePoint::rx, arrival.t_us);
                fo.trace.stamp(TracePoint::tx, arrival.t_us);
                fo.status = ResponseStatus::shed;
                stats_->observe(fo, arrival.t_us);
            }
            return;
        }

        const bool degrade = options_.shedding && overload_.overloaded();
        const int primary = Session::primary_version(plan);

        // Resolve the models up front (mirrors server.cpp): once the first
        // submit happens a full batch may flush synchronously, run on_label,
        // and erase this frame — so nothing below may touch inflight_[key]
        // across a submit (operator[] would default-insert a leaked entry).
        std::vector<std::pair<std::size_t, const ml::Sequential*>> to_submit;
        for (std::size_t m = 0; m < plan.states.size(); ++m) {
            if (degrade && static_cast<int>(m) != primary) continue;
            const ml::Sequential* model = session.model_for(m, plan.states[m]);
            if (model != nullptr)
                to_submit.emplace_back(m, model);
        }

        const std::uint64_t key = frame_seq_++;
        InFlight& inflight = inflight_[key];
        inflight.stream = arrival.stream;
        inflight.frame = arrival.frame;
        inflight.proposals.assign(plan.states.size(), std::nullopt);
        inflight.arrival_us = arrival.t_us;
        inflight.degraded = degrade;
        inflight.remaining = static_cast<int>(to_submit.size());
        inflight.plan = std::move(plan);
        // Virtual-time trace: arrival is both rx and enqueue (parsing is
        // instantaneous in the synthetic model); the batcher/engine stamps
        // land in on_label, the vote/tx stamps in finalize.
        inflight.trace.stamp(TracePoint::rx, arrival.t_us);
        inflight.trace.stamp(TracePoint::enqueue, arrival.t_us);
        if (degrade) {
            static obs::Counter& shed = obs::metrics().counter("serve.shed.degraded");
            shed.add(1);
            MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::load_shed, key,
                                static_cast<std::uint32_t>(arrival.stream), 1.0,
                                overload_.breach_fraction());
        }

        if (to_submit.empty()) {
            // Every eligible module was non-functional: vote over an empty
            // proposal set right away instead of leaking the entry.
            inflight.completed_us = arrival.t_us;
            finalize(inflight);
            inflight_.erase(key);
            return;
        }

        // A full queue flushes inside submit(): stamp the flush time first.
        flush_time_us_ = arrival.t_us;
        for (const auto& [m, model] : to_submit) {
            batcher_.submit(model, sample_.data(), arrival.t_us,
                            [this, key, m = m](int label, const BatchStamp& stamp) {
                                on_label(key, m, label, stamp);
                            });
        }
    }

    void on_label(std::uint64_t key, std::size_t module, int label,
                  const BatchStamp& stamp) {
        // Cost the batch once per flush: it queues behind the previous one
        // and occupies the virtual engine for base + B * per_frame.
        if (stamp.seq != last_stamp_seq_) {
            last_stamp_seq_ = stamp.seq;
            const double busy = options_.service_base_us +
                                options_.service_per_frame_us * stamp.size;
            flush_start_us_ = std::max(flush_time_us_, engine_busy_us_);
            engine_busy_us_ = flush_start_us_ + stamp_us(busy);
            ++flushes_;
            flushed_frames_ += stamp.size;
        }
        auto it = inflight_.find(key);
        if (it == inflight_.end()) return;
        InFlight& inflight = it->second;
        inflight.proposals[module] = label;
        inflight.completed_us = std::max(inflight.completed_us, engine_busy_us_);
        // Monotone stamps: a frame fanned over several flushes keeps the
        // boundaries of the last batch that carried one of its versions —
        // formed is the batcher's virtual flush time, the infer interval is
        // the virtual engine occupancy computed above.
        inflight.trace.stamp(TracePoint::formed, stamp.formed_us);
        inflight.trace.stamp(TracePoint::infer_start, flush_start_us_);
        inflight.trace.stamp(TracePoint::infer_end, engine_busy_us_);
        if (--inflight.remaining == 0) {
            finalize(inflight);
            inflight_.erase(it);
        }
    }

    void finalize(InFlight& inflight) {
        MVREJU_PROFILE_STAGE(profile_scope, "vote");
        Session& session = sessions_[static_cast<std::size_t>(inflight.stream)];
        const SessionResult result =
            session.complete_frame(inflight.plan, std::move(inflight.proposals));

        Outcome& outcome =
            outcomes_[static_cast<std::size_t>(inflight.stream) *
                          static_cast<std::size_t>(options_.frames_per_stream) +
                      static_cast<std::size_t>(inflight.frame)];
        outcome.status = static_cast<std::uint8_t>(result.kind);
        outcome.degraded = inflight.degraded ? 1 : 0;
        outcome.label = result.label;
        outcome.agreeing = static_cast<std::uint16_t>(result.agreeing);

        const double latency_ms =
            static_cast<double>(inflight.completed_us - inflight.arrival_us) / 1000.0;
        latencies_ms_.push_back(latency_ms);
        const bool breach = latency_ms > options_.slo_budget_ms;
        if (breach) {
            ++slo_breaches_;
            static obs::Counter& breaches = obs::metrics().counter("serve.slo_breach");
            breaches.add(1);
            MVREJU_OBS_EVENT_AT(inflight.completed_us * 1000,
                                obs::EventKind::slo_breach,
                                static_cast<std::uint64_t>(inflight.frame),
                                static_cast<std::uint32_t>(inflight.stream),
                                latency_ms, options_.slo_budget_ms);
        }
        overload_.record(breach);

        if (stats_ != nullptr) {
            // Voting and response hand-off are instantaneous in virtual
            // time, so both close at the completion stamp.
            inflight.trace.stamp(TracePoint::vote, inflight.completed_us);
            inflight.trace.stamp(TracePoint::tx, inflight.completed_us);
            FrameObservation fo;
            fo.stream = static_cast<std::uint32_t>(inflight.stream);
            fo.frame = static_cast<std::uint64_t>(inflight.frame);
            fo.trace = inflight.trace;
            fo.status = static_cast<ResponseStatus>(result.kind);
            fo.degraded = inflight.degraded;
            fo.latency_ms = latency_ms;
            fo.slo_budget_ms = options_.slo_budget_ms;
            stats_->observe(fo, inflight.completed_us);
        }
    }

    [[nodiscard]] FleetResult tally() const {
        FleetResult result;
        result.frames = outcomes_.size();
        Fnv1a fnv;
        for (const Outcome& o : outcomes_) {
            switch (o.status) {
                case 0: ++result.decided; break;
                case 1: ++result.skipped; break;
                case 2: ++result.no_output; break;
                case 3: ++result.dropped; break;
                default: break;
            }
            result.degraded += o.degraded;
            fnv.add(o.status);
            fnv.add(o.degraded);
            fnv.add(o.label);
            fnv.add(o.agreeing);
            fnv.add(o.functional);
        }
        result.output_hash = fnv.hash;
        result.slo_breaches = slo_breaches_;
        result.batch_flushes = flushes_;
        result.mean_batch =
            flushes_ == 0 ? 0.0
                          : static_cast<double>(flushed_frames_) /
                                static_cast<double>(flushes_);
        result.shed_rate = result.frames == 0
                               ? 0.0
                               : static_cast<double>(result.degraded + result.dropped) /
                                     static_cast<double>(result.frames);
        std::vector<double> sorted = latencies_ms_;
        std::sort(sorted.begin(), sorted.end());
        auto percentile = [&sorted](double p) {
            if (sorted.empty()) return 0.0;
            const auto index = static_cast<std::size_t>(
                p * static_cast<double>(sorted.size() - 1) + 0.5);
            return sorted[std::min(index, sorted.size() - 1)];
        };
        result.p50_virtual_ms = percentile(0.50);
        result.p99_virtual_ms = percentile(0.99);
        return result;
    }

    const ModelSet& set_;
    const FleetOptions& options_;
    FleetStats* stats_ = nullptr;
    OverloadControl overload_;
    DynamicBatcher batcher_;
    std::vector<Session> sessions_;
    std::vector<StreamState> streams_;
    std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> arrivals_;
    std::unordered_map<std::uint64_t, InFlight> inflight_;
    std::vector<Outcome> outcomes_;
    std::vector<double> latencies_ms_;
    std::vector<float> sample_;
    double period_us_ = 0.0;
    std::uint64_t frame_seq_ = 0;
    std::uint64_t last_arrival_us_ = 0;
    std::uint64_t flush_time_us_ = 0;
    std::uint64_t flush_start_us_ = 0;
    std::uint64_t engine_busy_us_ = 0;
    std::uint64_t last_stamp_seq_ = 0;
    std::uint64_t slo_breaches_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t flushed_frames_ = 0;
};

}  // namespace

FleetResult run_fleet(const ModelSet& set, const FleetOptions& options,
                      FleetStats* stats) {
    FleetRun run(set, options, stats);
    return run.run();
}

}  // namespace mvreju::serve
