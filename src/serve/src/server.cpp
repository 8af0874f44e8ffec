#include "mvreju/serve/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mvreju/net/conn.hpp"
#include "mvreju/net/event_loop.hpp"
#include "mvreju/net/listener.hpp"
#include "mvreju/obs/exporter.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/serve/batcher.hpp"
#include "mvreju/serve/fleet_stats.hpp"
#include "mvreju/serve/protocol.hpp"
#include "mvreju/serve/trace.hpp"

namespace mvreju::serve {

namespace {
using Clock = std::chrono::steady_clock;
}

struct Server::Impl {
    const ModelSet& set;
    Options options;

    std::unique_ptr<net::EventLoop> loop;
    std::unique_ptr<net::Listener> listener;
    std::thread thread;
    bool started = false;
    int bound_port = 0;
    Clock::time_point epoch{};

    /// One admitted client stream. Everything here is touched only by the
    /// service thread.
    struct Client {
        std::shared_ptr<net::Conn> conn;
        std::unique_ptr<Session> session;
        FrameParser parser;
        explicit Client(std::size_t sample_size) : parser(sample_size) {}
    };

    struct InFlight {
        std::uint64_t stream_id = 0;
        std::uint64_t request_id = 0;  ///< client frame id, echoed back
        core::FramePlan plan;
        std::vector<std::optional<int>> proposals;
        int remaining = 0;
        std::uint64_t arrival_us = 0;
        bool degraded = false;
        bool want_trace = false;  ///< client asked for the stage annex
        FrameTrace trace;
    };

    DynamicBatcher batcher;
    OverloadControl overload;
    FleetStats fleet_stats;
    std::uint64_t last_publish_us = 0;
    std::unordered_map<std::uint64_t, Client> clients;
    std::unordered_map<std::uint64_t, InFlight> inflight;
    /// Clients whose connection closed mid-callback. on_close() extracts the
    /// node instead of erasing so that Client& references held further up
    /// the stack (on_data's dispatch loop, finalize) stay valid; the nodes
    /// are destroyed at the top of the next serve_loop tick.
    std::vector<std::unordered_map<std::uint64_t, Client>::node_type> graveyard;
    std::vector<std::weak_ptr<net::Conn>> refused;  ///< closing after refusal
    std::uint64_t next_stream_id = 1;
    std::uint64_t next_frame_key = 1;

    mutable std::mutex stats_mutex;
    Stats stats_snapshot;

    Impl(const ModelSet& model_set, const Options& server_options)
        : set(model_set),
          options(server_options),
          batcher(DynamicBatcher::Options{server_options.batch_max,
                                          server_options.batch_delay_us,
                                          server_options.infer_threads,
                                          model_set.input_shape,
                                          [this] { return now_us(); }}),
          overload(server_options.overload) {}

    [[nodiscard]] std::uint64_t now_us() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                  epoch)
                .count());
    }

    template <typename Fn>
    void bump(Fn&& update) {
        const std::lock_guard<std::mutex> guard(stats_mutex);
        update(stats_snapshot);
    }

    void respond(Client& client, const ResponseFrame& response) {
        MVREJU_PROFILE_STAGE(profile_scope, "tx");
        if (!client.conn || client.conn->closed()) return;
        client.conn->send(encode_response(response));
    }

    /// Track a refused conn for shutdown, recycling slots left by conns
    /// that already drained (same idiom as obs::Exporter) so a sustained
    /// flood past max_streams cannot grow the vector without bound.
    void track_refused(const std::shared_ptr<net::Conn>& conn) {
        for (auto& slot : refused) {
            if (slot.expired()) {
                slot = conn;
                return;
            }
        }
        refused.push_back(conn);
    }

    void on_accept(int fd) {
        if (clients.size() >= static_cast<std::size_t>(options.max_streams)) {
            // Admission refusal: one error frame, then close. The conn is
            // loop-owned until it drains; track it for shutdown.
            auto conn = net::Conn::adopt(*loop, fd, [](net::Conn&) {});
            if (conn) {
                conn->send(encode_response(ResponseFrame{}));
                conn->close_after_send();
                track_refused(conn);
            }
            static obs::Counter& refusals =
                obs::metrics().counter("serve.admission_refusals");
            refusals.add(1);
            bump([](Stats& s) { ++s.admission_refusals; });
            return;
        }
        const std::uint64_t id = next_stream_id++;
        auto [it, inserted] = clients.emplace(id, Client(set.sample_size()));
        Client& client = it->second;
        Session::Options session_options;
        session_options.health = options.health;
        session_options.scheme = options.scheme;
        client.session = std::make_unique<Session>(id, set, session_options);
        client.conn = net::Conn::adopt(
            *loop, fd, [this, id](net::Conn&) { on_data(id); },
            [this, id](net::Conn&) { on_close(id); });
        if (!client.conn) {
            clients.erase(id);
            return;
        }
        client.conn->tag = id;
        bump([this](Stats& s) {
            ++s.connections;
            s.active_streams = clients.size();
        });
    }

    void on_close(std::uint64_t id) {
        auto node = clients.extract(id);
        if (!node.empty()) graveyard.push_back(std::move(node));
        bump([this](Stats& s) { s.active_streams = clients.size(); });
    }

    void on_data(std::uint64_t id) {
        // Stage tags scope the sampling profiler's CPU attribution: samples
        // landing while a scope is live are charged to its stage, so /fleet's
        // cpu_by_stage mirrors the FrameTrace stage names. Nested scopes
        // (finalize -> respond) charge the innermost stage.
        MVREJU_PROFILE_STAGE(profile_scope, "parse");
        auto it = clients.find(id);
        if (it == clients.end()) return;
        Client& client = it->second;
        std::vector<RequestFrame> requests;
        const bool ok = client.parser.consume(client.conn->rx(), requests);
        for (RequestFrame& request : requests) handle_frame(client, request);
        if (!ok) {
            // Protocol violation: one error response naming nothing (the
            // offending frame has no trustworthy id), then close. The
            // stream's inflight frames finalize harmlessly against the
            // erased client.
            static obs::Counter& errors =
                obs::metrics().counter("serve.protocol_errors");
            errors.add(1);
            bump([](Stats& s) { ++s.protocol_errors; });
            respond(client, ResponseFrame{});
            client.conn->close_after_send();
        }
    }

    void handle_frame(Client& client, RequestFrame& request) {
        const std::uint64_t arrival = now_us();
        const double t_s = static_cast<double>(arrival) * 1e-6;
        core::FramePlan plan = client.session->begin_frame(t_s);
        bump([](Stats& s) { ++s.frames; });

        ResponseFrame response;
        response.frame_id = request.frame_id;
        response.functional_modules =
            static_cast<std::uint32_t>(plan.functional_modules);

        if (plan.functional_modules == 0) {
            const SessionResult result = client.session->complete_frame(
                plan, std::vector<std::optional<int>>(plan.states.size()));
            response.status = ResponseStatus::no_output;
            response.agreeing = static_cast<std::uint16_t>(result.agreeing);
            overload.record(false);
            bump([](Stats& s) { ++s.no_output; });
            FrameTrace trace;
            trace.stamp(TracePoint::rx, arrival);
            trace.stamp(TracePoint::vote, now_us());
            trace.stamp(TracePoint::tx, now_us());
            if (request.want_trace) {
                response.has_trace = true;
                response.stage_us = trace.breakdown_us();
            }
            respond(client, response);
            observe_frame(client.conn->tag, request.frame_id, trace,
                          response.status, false);
            return;
        }

        if (inflight.size() >= options.max_inflight) {
            static obs::Counter& dropped =
                obs::metrics().counter("serve.shed.dropped");
            dropped.add(1);
            MVREJU_OBS_EVENT_AT(arrival * 1000, obs::EventKind::load_shed,
                                request.frame_id,
                                static_cast<std::uint32_t>(client.conn->tag), 2.0,
                                overload.breach_fraction());
            overload.record(true);
            response.status = ResponseStatus::shed;
            bump([](Stats& s) { ++s.dropped; });
            FrameTrace trace;
            trace.stamp(TracePoint::rx, arrival);
            trace.stamp(TracePoint::tx, now_us());
            if (request.want_trace) {
                response.has_trace = true;
                response.stage_us = trace.breakdown_us();
            }
            respond(client, response);
            observe_frame(client.conn->tag, request.frame_id, trace,
                          response.status, false);
            return;
        }

        const bool degrade = options.shedding && overload.overloaded();
        const int primary = Session::primary_version(plan);
        const std::uint64_t stream_id = client.conn->tag;

        // Resolve the models up front: once the first submit happens a full
        // batch may flush synchronously, run on_label, and erase this frame
        // from `inflight` — so nothing below may hold references into it
        // across a submit.
        std::vector<std::pair<std::size_t, const ml::Sequential*>> to_submit;
        for (std::size_t m = 0; m < plan.states.size(); ++m) {
            if (degrade && static_cast<int>(m) != primary) continue;
            const ml::Sequential* model =
                client.session->model_for(m, plan.states[m]);
            if (model != nullptr)
                to_submit.emplace_back(m, model);
        }

        const std::uint64_t key = next_frame_key++;
        InFlight& frame = inflight[key];
        frame.stream_id = stream_id;
        frame.request_id = request.frame_id;
        frame.proposals.assign(plan.states.size(), std::nullopt);
        frame.arrival_us = arrival;
        frame.degraded = degrade;
        frame.want_trace = request.want_trace;
        frame.remaining = static_cast<int>(to_submit.size());
        frame.plan = std::move(plan);
        frame.trace.stamp(TracePoint::rx, arrival);

        if (degrade) {
            static obs::Counter& shed =
                obs::metrics().counter("serve.shed.degraded");
            shed.add(1);
            MVREJU_OBS_EVENT_AT(arrival * 1000, obs::EventKind::load_shed,
                                request.frame_id,
                                static_cast<std::uint32_t>(stream_id), 1.0,
                                overload.breach_fraction());
            bump([](Stats& s) { ++s.degraded; });
        }

        if (to_submit.empty()) {
            // Every eligible module was non-functional: vote over an empty
            // proposal set right away instead of leaving the frame stranded.
            finalize(frame);
            inflight.erase(key);
            return;
        }
        // enqueue closes the parse stage: plan + model resolution above,
        // batcher staging below.
        frame.trace.stamp(TracePoint::enqueue, now_us());
        for (const auto& [m, model] : to_submit) {
            batcher.submit(model, request.image.data(), arrival,
                           [this, key, m = m](int label, const BatchStamp& stamp) {
                               on_label(key, m, label, stamp);
                           });
        }
    }

    void on_label(std::uint64_t key, std::size_t module, int label,
                  const BatchStamp& stamp) {
        auto it = inflight.find(key);
        if (it == inflight.end()) return;
        InFlight& frame = it->second;
        frame.proposals[module] = label;
        // Monotone stamps: a frame fanned over several batches keeps the
        // boundaries of the last flush that carried one of its versions.
        frame.trace.stamp(TracePoint::formed, stamp.formed_us);
        frame.trace.stamp(TracePoint::infer_start, stamp.infer_start_us);
        frame.trace.stamp(TracePoint::infer_end, stamp.infer_end_us);
        if (--frame.remaining > 0) return;
        finalize(frame);
        inflight.erase(it);
    }

    void finalize(InFlight& frame) {
        MVREJU_PROFILE_STAGE(profile_scope, "vote");
        auto it = clients.find(frame.stream_id);
        if (it == clients.end()) return;  // stream disconnected mid-flight
        Client& client = it->second;
        const SessionResult result =
            client.session->complete_frame(frame.plan, std::move(frame.proposals));
        frame.trace.stamp(TracePoint::vote, now_us());

        const double latency_ms =
            static_cast<double>(now_us() - frame.arrival_us) / 1000.0;
        const bool breach = latency_ms > options.slo_budget_ms;
        if (breach) {
            static obs::Counter& breaches =
                obs::metrics().counter("serve.slo_breach");
            breaches.add(1);
            MVREJU_OBS_EVENT_AT(now_us() * 1000, obs::EventKind::slo_breach,
                                frame.request_id,
                                static_cast<std::uint32_t>(frame.stream_id),
                                latency_ms, options.slo_budget_ms);
            bump([](Stats& s) { ++s.slo_breaches; });
        }
        overload.record(breach);

        ResponseFrame response;
        response.frame_id = frame.request_id;
        response.status = static_cast<ResponseStatus>(result.kind);
        response.degraded = frame.degraded;
        response.agreeing = static_cast<std::uint16_t>(result.agreeing);
        response.label = result.label;
        response.functional_modules =
            static_cast<std::uint32_t>(result.functional_modules);
        bump([&result](Stats& s) {
            switch (result.kind) {
                case core::VoteKind::decided: ++s.decided; break;
                case core::VoteKind::skipped: ++s.skipped; break;
                case core::VoteKind::no_output: ++s.no_output; break;
            }
        });
        // The wire annex is stamped just before serialisation — it cannot
        // include its own send; FleetStats sees the same trace.
        frame.trace.stamp(TracePoint::tx, now_us());
        if (frame.want_trace) {
            response.has_trace = true;
            response.stage_us = frame.trace.breakdown_us();
        }
        respond(client, response);
        observe_frame(frame.stream_id, frame.request_id, frame.trace,
                      response.status, frame.degraded, latency_ms,
                      options.slo_budget_ms);
    }

    /// Fold one finished frame into the fleet telemetry and refresh the
    /// exporter documents when the publish interval has elapsed. Runs on
    /// the service thread; the exporter only ever sees rendered strings.
    void observe_frame(std::uint64_t stream, std::uint64_t frame_id,
                       const FrameTrace& trace, ResponseStatus status,
                       bool degraded, double latency_ms = 0.0,
                       double slo_budget_ms = 0.0) {
        if (!options.publish_telemetry) return;
        const std::uint64_t now = now_us();
        FrameObservation fo;
        fo.stream = static_cast<std::uint32_t>(stream);
        fo.frame = frame_id;
        fo.trace = trace;
        fo.status = status;
        fo.degraded = degraded;
        fo.latency_ms = latency_ms;
        fo.slo_budget_ms = slo_budget_ms;
        fleet_stats.observe(fo, now);
        maybe_publish(now);
    }

    /// Throttled push of /fleet JSON and the aggregated health report to
    /// the global exporter (no-op unless one is serving).
    void maybe_publish(std::uint64_t now) {
        if (now - last_publish_us < options.publish_interval_us &&
            last_publish_us != 0)
            return;
        obs::Exporter& exporter = obs::Exporter::global();
        if (!exporter.running()) return;
        last_publish_us = now;
#ifndef MVREJU_OBS_DISABLED
        // When the sampling profiler is armed, fold its per-stage CPU
        // attribution (last 10 s) into the fleet document so fleet_top can
        // put a CPU% column next to the stage latency rows.
        if (obs::Profiler* profiler = obs::Profiler::active()) {
            std::vector<FleetStats::StageCpuShare> shares;
            for (const obs::StageCpu& cpu : profiler->stage_cpu(10))
                shares.push_back({cpu.stage, cpu.samples, cpu.fraction});
            fleet_stats.set_cpu_by_stage(std::move(shares));
        }
#endif
        exporter.set_fleet_json(fleet_stats.to_json(now));
        exporter.set_health(aggregate_health(now));
    }

    /// Fold every live stream's health process into one exporter report:
    /// counts sum over streams x versions, per-version states are the modal
    /// state across streams, and the rejuvenation age comes from the most
    /// recent completion anywhere in the fleet.
    [[nodiscard]] obs::HealthReport aggregate_health(std::uint64_t now) const {
        obs::HealthReport report;
        const double now_s = static_cast<double>(now) * 1e-6;
        double last_rejuvenation_s = -1.0;
        // state_votes[v][s]: streams whose version v is in state s.
        std::vector<std::array<std::size_t, 4>> state_votes;
        for (const auto& [id, client] : clients) {
            const core::HealthEngine& health = client.session->health();
            const int modules = health.module_count();
            if (state_votes.size() < static_cast<std::size_t>(modules))
                state_votes.resize(static_cast<std::size_t>(modules));
            for (int m = 0; m < modules; ++m) {
                const core::ModuleState state = health.state(m);
                ++state_votes[static_cast<std::size_t>(m)]
                             [static_cast<std::size_t>(state)];
                switch (state) {
                    case core::ModuleState::healthy: ++report.healthy; break;
                    case core::ModuleState::compromised:
                        ++report.compromised;
                        break;
                    case core::ModuleState::nonfunctional:
                        ++report.nonfunctional;
                        break;
                    case core::ModuleState::rejuvenating_proactive:
                        ++report.rejuvenating;
                        break;
                }
            }
            last_rejuvenation_s =
                std::max(last_rejuvenation_s, health.last_rejuvenation_time());
        }
        static constexpr const char* kStateNames[4] = {
            "healthy", "compromised", "nonfunctional", "rejuvenating"};
        for (const auto& votes : state_votes) {
            std::size_t best = 0;
            for (std::size_t s = 1; s < votes.size(); ++s)
                if (votes[s] > votes[best]) best = s;
            report.module_states.emplace_back(kStateNames[best]);
        }
        report.last_rejuvenation_age_s =
            last_rejuvenation_s < 0.0 ? -1.0 : now_s - last_rejuvenation_s;
        return report;
    }

    void serve_loop() {
        while (!loop->stop_requested()) {
            graveyard.clear();  // no Client& references live between ticks
            int timeout = options.tick_ms;
            if (const auto deadline = batcher.next_deadline_us()) {
                const std::uint64_t now = now_us();
                const std::uint64_t wait_us = *deadline > now ? *deadline - now : 0;
                timeout = static_cast<int>(
                    std::min<std::uint64_t>(wait_us / 1000,
                                            static_cast<std::uint64_t>(timeout)));
            }
            if (loop->poll_once(timeout) < 0) break;
            batcher.flush_due(now_us());
            // Keep the exporter documents fresh even when no frames flow.
            if (options.publish_telemetry) maybe_publish(now_us());
        }
    }
};

Server::Server(const ModelSet& set, const Options& options)
    : impl_(std::make_unique<Impl>(set, options)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
    if (impl_->started) {
        if (error) *error = "already running";
        return false;
    }
    impl_->loop = std::make_unique<net::EventLoop>();
    impl_->loop->reset_stop();
    net::ListenerOptions listen_options;
    listen_options.host = impl_->options.host;
    listen_options.port = impl_->options.port;
    listen_options.backlog = impl_->options.backlog;
    impl_->listener = net::Listener::open(
        *impl_->loop, listen_options, [this](int fd) { impl_->on_accept(fd); },
        error);
    if (!impl_->listener) {
        impl_->loop.reset();
        return false;
    }
    impl_->bound_port = impl_->listener->port();
    impl_->epoch = Clock::now();
    impl_->started = true;
    impl_->thread = std::thread([this] { impl_->serve_loop(); });
    return true;
}

void Server::stop() {
    if (!impl_->started) return;
    impl_->loop->stop();
    if (impl_->thread.joinable()) impl_->thread.join();
    // Close every connection while the loop still exists: Conn::close
    // unregisters from a live loop (same ordering as obs::Exporter). Steal
    // the map first — close() re-enters on_close(), which erases from the
    // member map and would invalidate this iteration.
    auto clients = std::move(impl_->clients);
    impl_->clients.clear();
    for (auto& [id, client] : clients)
        if (client.conn) client.conn->close();
    clients.clear();
    impl_->graveyard.clear();
    for (auto& weak : impl_->refused)
        if (auto conn = weak.lock()) conn->close();
    impl_->refused.clear();
    impl_->inflight.clear();
    impl_->listener.reset();
    impl_->loop.reset();
    impl_->started = false;
    impl_->bound_port = 0;
}

bool Server::running() const noexcept { return impl_->started; }

int Server::port() const noexcept { return impl_->bound_port; }

Server::Stats Server::stats() const {
    const std::lock_guard<std::mutex> guard(impl_->stats_mutex);
    return impl_->stats_snapshot;
}

}  // namespace mvreju::serve
