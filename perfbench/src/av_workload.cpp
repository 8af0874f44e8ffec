// av_closed_loop: av::run_scenario over a fixed drive list — every
// evaluation route under the paper's bare configuration (3 versions,
// rejuvenation, trust policy off) and under each built-in sensor-failure
// scenario class with the trust policy on. The list is run pass after
// pass; one unit of work is one drive (one run_scenario call). p50_ms is
// the median drive time over every drive of every pass, rate_per_s the
// simulated frames per wall second, median over passes.
//
// Correctness: the FNV-1a hash of every drive's outcome record must be
// identical across passes, and equal the committed value at the default
// seed.
//
// The traced run replays one pass frame by frame through the same public
// functions run_scenario composes (sensor, scenario player, trust monitor,
// degraded ladder, health engine, per-version predict, voter, planner),
// timing each call, and checks that the replay reproduces every drive's
// outcome.

#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "mvreju/av/simulation.hpp"
#include "mvreju/fi/inject.hpp"
#include "mvreju/util/rng.hpp"

namespace perfbench {
namespace {

using namespace mvreju;

constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 3;
// Reduced detector training: 1000 samples x 2 epochs keeps healthy accuracy
// near 0.9 at under a tenth of the full 4000 x 8 cost.
constexpr std::size_t kTrainSamples = 1000;
constexpr int kTrainEpochs = 2;

// Outcome hash of one full pass at the default seed (see hash_outcome()).
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kDefaultSeedPassHash = 0x3506caa5f0a2b811ULL;

struct Drive {
    const av::Route* route = nullptr;
    av::ScenarioConfig config;
};

struct Setup {
    std::vector<av::Town> towns;
    std::deque<av::Scenario> scenarios;  // stable addresses for ScenarioConfig
    std::vector<Drive> drives;
    av::DetectorSet detectors;
};

void build_setup(Setup& s, std::uint64_t seed) {
    s.towns = av::make_towns();
    s.scenarios.clear();
    s.drives.clear();

    std::vector<av::ScenarioConfig> configs;
    configs.emplace_back();  // the paper's bare configuration
    for (const std::string& name : av::builtin_scenario_names()) {
        s.scenarios.push_back(av::builtin_scenario(name));
        av::ScenarioConfig cfg;
        cfg.scenario = &s.scenarios.back();
        cfg.trust_policy = true;
        configs.push_back(cfg);
    }
    util::Rng rng(seed);
    for (const av::RouteRef& ref : av::evaluation_routes(s.towns)) {
        for (const av::ScenarioConfig& cfg : configs) {
            Drive drive;
            drive.route = &s.towns[ref.town].routes[ref.route];
            drive.config = cfg;
            drive.config.seed = rng();
            s.drives.push_back(drive);
        }
    }

    av::DetectorTrainOptions train;
    train.train_samples = kTrainSamples;
    train.eval_samples = kTrainSamples / 5;
    train.epochs = kTrainEpochs;  // cache_dir stays empty: no disk cache
    s.detectors = av::prepare_detectors(av::SensorConfig{}, train);
}

/// Everything a drive decided, without its timing.
void hash_outcome(Fnv1a& h, const av::RunMetrics& m) {
    for (const int v : {m.total_frames, m.collision_frames, m.skipped_frames,
                        m.no_output_frames, m.decided_frames, m.unsafe_decided_frames,
                        m.first_collision_frame, m.sensor_fault_frames, m.stop_frames,
                        m.reduced_frames, m.degraded_transitions})
        h.add(v);
    h.add(m.inferences);
    h.add(m.dropped_proposals);
    h.add(m.route_completed);
    h.add(m.min_trust);
    h.add(m.mean_trust);
    const core::HealthStats& hs = m.health_stats;
    for (const std::size_t v : {hs.compromises, hs.failures, hs.reactive_rejuvenations,
                                hs.proactive_rejuvenations, hs.proactive_triggers,
                                hs.deferred_triggers})
        h.add(v);
}

struct Pass {
    double wall_s = 0.0;
    double drive_wall_s = 0.0;       ///< sum over drives of run_scenario time
    std::vector<double> drive_ms;    ///< each drive's run_scenario time
    double perception_s = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t inferences = 0;
    std::uint64_t hash = 0;
    std::vector<av::RunMetrics> runs;
};

Pass run_pass(const Setup& s) {
    Pass pass;
    Fnv1a hash;
    const auto t0 = Clock::now();
    for (const Drive& drive : s.drives) {
        const auto d0 = Clock::now();
        av::RunMetrics m = av::run_scenario(*drive.route, s.detectors, drive.config);
        pass.drive_ms.push_back(1e3 * seconds_since(d0));
        pass.drive_wall_s += pass.drive_ms.back() * 1e-3;
        pass.frames += static_cast<std::uint64_t>(m.total_frames);
        pass.inferences += m.inferences;
        pass.perception_s += m.perception_wall_seconds;
        hash_outcome(hash, m);
        pass.runs.push_back(std::move(m));
    }
    pass.wall_s = seconds_since(t0);
    pass.hash = hash.value();
    return pass;
}

/// Accumulated time and call count of one public function. A step that
/// takes two calls per frame counts only one of them (`count = false` on
/// the other), so per-call time is per frame.
struct CallTimer {
    double total_us = 0.0;
    std::uint64_t calls = 0;

    template <typename Fn>
    decltype(auto) operator()(Fn&& fn, bool count = true) {
        struct Stop {
            CallTimer& timer;
            bool count;
            Clock::time_point t0 = Clock::now();
            ~Stop() {
                timer.total_us +=
                    std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
                timer.calls += count;
            }
        } stop{*this, count};
        return fn();
    }
};

struct Timers {
    CallTimer sensor, scenario, trust, degraded, vote, health, planner;
    std::vector<CallTimer> predict;  // per version
};

/// run_scenario's frame loop (localization off, as in every drive of the
/// list), with each call into a layer timed. Returns the drive's outcome so
/// the caller can check the replay against the real run.
av::RunMetrics replay_drive(const av::Route& route, const av::DetectorSet& detectors,
                            const av::ScenarioConfig& config, Timers& t) {
    util::Rng root(config.seed);
    util::Rng sensor_rng = root.split(1);

    core::HealthEngineConfig health_cfg;
    health_cfg.modules = config.versions;
    health_cfg.proactive = config.rejuvenation;
    health_cfg.policy = config.victim_policy;
    health_cfg.timing.mttc = config.mttc;
    health_cfg.timing.mttf = config.mttf;
    health_cfg.timing.reactive_duration = config.reactive_duration;
    health_cfg.timing.proactive_duration = config.proactive_duration;
    health_cfg.timing.rejuvenation_interval = config.rejuvenation_interval;
    health_cfg.seed = root.split(2)();
    core::HealthEngine health(health_cfg);

    std::vector<av::NpcVehicle> npcs;
    util::Rng npc_rng = root.split(3);
    for (int i = 0; i < config.npc_count; ++i) {
        av::NpcProfile profile;
        profile.cruise_speed = npc_rng.uniform(6.0, 8.0);
        profile.cruise_time = npc_rng.uniform(7.0, 12.0);
        profile.stop_time = npc_rng.uniform(2.0, 3.5);
        const double s0 = 40.0 + 55.0 * i + npc_rng.uniform(-5.0, 5.0);
        npcs.emplace_back(route, std::min(s0, route.length() - 10.0), profile, npc_rng());
    }

    util::Rng variant_rng = root.split(4);
    const auto versions = static_cast<std::size_t>(config.versions);
    std::vector<std::size_t> active_variant(versions, 0);
    std::vector<core::ModuleState> previous_state(versions, core::ModuleState::healthy);

    av::EgoVehicle ego(route.point_at(0.0), route.heading_at(0.0));
    (void)root.split(5);  // the GNSS stream run_scenario splits off
    av::Planner planner(config.planner);
    core::Voter<av::Detection, av::DetectionNear> voter(config.voting);
    double s_hint = 0.0;

    std::optional<av::ScenarioPlayer> player;
    if (config.scenario != nullptr) player.emplace(*config.scenario, root.split(6)());
    av::TrustMonitor trust(config.trust);
    av::DegradedModeController degraded(config.versions, config.policy);
    std::vector<std::optional<ml::Sequential>> injected(versions);
    if (t.predict.size() < versions) t.predict.resize(versions);

    av::RunMetrics metrics;
    const int max_frames = static_cast<int>(config.horizon / config.dt);
    for (int frame = 0; frame < max_frames; ++frame) {
        const double now = frame * config.dt;
        t.health([&] { health.advance_to(now); });

        std::vector<av::Obb> boxes;
        for (const av::NpcVehicle& npc : npcs) boxes.push_back(npc.obb());
        ml::Tensor grid = t.sensor(
            [&] { return av::render_grid(ego.obb(), boxes, config.sensor, sensor_rng); });
        if (player) {
            std::vector<av::WeightFault> faults;
            t.scenario([&] {
                grid = player->apply(grid, now);
                faults = player->due_weight_faults(now);
            });
            for (const av::WeightFault& fault : faults) {
                if (fault.module < 0 || fault.module >= config.versions) continue;
                const auto mu = static_cast<std::size_t>(fault.module);
                switch (fault.kind) {
                    case av::WeightFaultKind::compromise:
                        if (health.state(fault.module) == core::ModuleState::healthy)
                            health.force_compromise(fault.module);
                        break;
                    case av::WeightFaultKind::fail:
                        if (core::is_functional(health.state(fault.module)))
                            health.force_failure(fault.module);
                        break;
                    case av::WeightFaultKind::inject: {
                        if (!injected[mu]) injected[mu] = detectors.healthy[mu];
                        const std::size_t layers = fi::injectable_layer_count(*injected[mu]);
                        fi::random_weight_inj(*injected[mu], fault.layer % layers, -100.0f,
                                              300.0f, fault.seed);
                        break;
                    }
                }
            }
        }

        av::DegradedMode mode = av::DegradedMode::normal;
        if (config.trust_policy) {
            const av::SensorStatus status =
                t.trust([&] { return trust.update(grid, config.dt); });
            if (status != av::SensorStatus::ok) ++metrics.sensor_fault_frames;
            mode = t.degraded([&] { return degraded.update(trust.reliability()); });
        }

        std::optional<int> perceived;
        bool stop = false;
        if (mode == av::DegradedMode::minimal_risk_stop) {
            ++metrics.stop_frames;
            stop = true;
        } else {
            const ml::Tensor* input = &grid;
            ml::Tensor pooled;
            if (mode == av::DegradedMode::reduced_resolution) {
                pooled = av::reduced_resolution(grid);
                input = &pooled;
                ++metrics.reduced_frames;
            }
            std::vector<std::optional<av::Detection>> proposals;
            for (int m = 0; m < config.versions; ++m) {
                const auto mu = static_cast<std::size_t>(m);
                const core::ModuleState state = health.state(m);
                if (state == core::ModuleState::compromised &&
                    previous_state[mu] != core::ModuleState::compromised)
                    active_variant[mu] =
                        variant_rng.uniform_int(detectors.compromised[mu].size());
                if (state == core::ModuleState::healthy &&
                    !core::is_functional(previous_state[mu]))
                    injected[mu].reset();
                previous_state[mu] = state;
                if (!core::is_functional(state)) {
                    proposals.emplace_back(std::nullopt);
                    continue;
                }
                if (config.trust_policy && degraded.version_dropped(m)) {
                    proposals.emplace_back(std::nullopt);
                    ++metrics.dropped_proposals;
                    continue;
                }
                const ml::Sequential& model =
                    state == core::ModuleState::healthy
                        ? (injected[mu] ? *injected[mu] : detectors.healthy[mu])
                        : detectors.compromised[mu][active_variant[mu]].model;
                proposals.emplace_back(
                    t.predict[mu]([&] { return av::Detection{model.predict(*input)}; }));
                ++metrics.inferences;
            }
            const auto vote = t.vote([&] { return voter.vote(proposals); });
            switch (vote.kind) {
                case core::VoteKind::decided:
                    ++metrics.decided_frames;
                    perceived = vote.value->bucket;
                    break;
                case core::VoteKind::skipped: ++metrics.skipped_frames; break;
                case core::VoteKind::no_output: ++metrics.no_output_frames; break;
            }
            if (config.trust_policy) {
                trust.observe_vote(vote.kind == core::VoteKind::decided, config.dt);
                t.degraded(
                    [&] {
                        degraded.observe_votes(core::dissenting_proposals(
                            proposals, vote, av::DetectionNear{}));
                    },
                    false);
            }
        }

        const auto [accel, steer] = t.planner([&] {
            planner.update_perception(stop ? std::optional<int>(av::kDistanceBuckets - 1)
                                           : perceived);
            const double limit = av::curvature_limited_speed(route, s_hint, config.planner);
            const double a = planner.accel_command(ego.speed(), limit);
            return std::pair{a, av::pure_pursuit_steer(ego, route, s_hint, config.planner)};
        });
        ego.step(accel, steer, config.dt);
        for (av::NpcVehicle& npc : npcs) npc.step(config.dt);

        bool colliding = false;
        for (const av::NpcVehicle& npc : npcs) {
            if (av::overlaps(ego.obb(), npc.obb())) {
                colliding = true;
                if (ego.speed() > npc.speed()) ego.set_speed(npc.speed());
            }
        }
        ++metrics.total_frames;
        if (colliding) {
            ++metrics.collision_frames;
            if (metrics.first_collision_frame < 0) metrics.first_collision_frame = frame;
        }
        if (s_hint >= route.length() - 6.0) break;
    }
    metrics.health_stats = health.stats();
    return metrics;
}

bool same_outcome(const av::RunMetrics& a, const av::RunMetrics& b) {
    return a.total_frames == b.total_frames && a.decided_frames == b.decided_frames &&
           a.skipped_frames == b.skipped_frames &&
           a.no_output_frames == b.no_output_frames &&
           a.collision_frames == b.collision_frames && a.inferences == b.inferences &&
           a.stop_frames == b.stop_frames && a.reduced_frames == b.reduced_frames;
}

/// Cost of one empty CallTimer call, subtracted from every per-call mean.
double timer_overhead_us() {
    CallTimer t;
    for (int i = 0; i < 20000; ++i) t([] {});
    return t.total_us / static_cast<double>(t.calls);
}

}  // namespace

Result run_av(const RunOptions& options) {
    Result result;

    // Set-up, repeated: towns, routes, drive list, detector training and
    // the compromised-variant scan.
    Setup setup;
    std::vector<double> setup_s;
    std::vector<double> first_accuracy;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        build_setup(setup, options.seed);
        setup_s.push_back(seconds_since(t0));
        if (i == 0) first_accuracy = setup.detectors.healthy_accuracy;
        result.check(setup.detectors.healthy_accuracy == first_accuracy,
                     "detector training is deterministic across set-ups");
    }
    std::printf("av_closed_loop: %zu drives per pass; detector accuracy", setup.drives.size());
    for (double a : setup.detectors.healthy_accuracy) std::printf(" %.3f", a);
    std::printf("\n");

    std::vector<Pass> passes;
    const double cpu_before = cpu_seconds();
    const auto start = Clock::now();
    while (passes.size() < kMinPasses || seconds_since(start) < options.seconds) {
        passes.push_back(run_pass(setup));
        result.attempted += setup.drives.size();
        if (passes.back().hash != passes.front().hash) {
            result.failed += setup.drives.size();
            result.check(false, "pass " + std::to_string(passes.size()) +
                                    " outcome hash differs from pass 1");
        }
    }
    const double cpu_per_drive =
        (cpu_seconds() - cpu_before) / static_cast<double>(result.attempted);
    std::printf("av_closed_loop: %zu passes, outcome hash %016llx\n", passes.size(),
                static_cast<unsigned long long>(passes.front().hash));
    if (options.seed == kDefaultSeed)
        result.check(passes.front().hash == kDefaultSeedPassHash,
                     "outcome hash equals the committed default-seed value");

    std::vector<double> fps;
    std::vector<double> drive_ms;
    double drive_wall = 0.0;
    double perception = 0.0;
    for (const Pass& p : passes) {
        fps.push_back(static_cast<double>(p.frames) / p.wall_s);
        drive_ms.insert(drive_ms.end(), p.drive_ms.begin(), p.drive_ms.end());
        drive_wall += p.drive_wall_s;
        perception += p.perception_s;
    }

    if (!options.trace) {
        detail("frames_per_s", median(fps), "frames/s");
        result.add("setup_s", median(setup_s), "s");
        result.add("p50_ms", median(drive_ms), "ms");
        result.add("rate_per_s", median(fps), "1/s");
        return result;
    }

    const Pass& first = passes.front();
    detail("av.perception_share", perception / drive_wall, "fraction");
    detail("ml.inferences_per_frame",
           static_cast<double>(first.inferences) / static_cast<double>(first.frames), "count");

    Timers timers;
    int mismatches = 0;
    for (std::size_t d = 0; d < setup.drives.size(); ++d) {
        const Drive& drive = setup.drives[d];
        const av::RunMetrics m =
            replay_drive(*drive.route, setup.detectors, drive.config, timers);
        if (!same_outcome(m, first.runs[d])) ++mismatches;
    }
    if (mismatches > 0)
        std::fprintf(stderr,
                     "warning: the per-call replay diverged from run_scenario on %d "
                     "drives; per-call times are approximate\n",
                     mismatches);

    // The replay makes the same calls as one pass, so per-call time x calls
    // is each layer's share of the untimed drives' wall time (taken from the
    // last pass, the one measured closest to the replay).
    const double overhead = timer_overhead_us();
    const double pass_us = 1e6 * passes.back().drive_wall_s;
    const auto report = [&](const std::string& name, const CallTimer& t) {
        const double per_call =
            t.calls == 0 ? 0.0
                         : std::max(0.0, t.total_us / static_cast<double>(t.calls) - overhead);
        detail(name, per_call, "us");
        return per_call * static_cast<double>(t.calls) / pass_us;
    };
    LayerReport layers;
    for (std::size_t m = 0; m < timers.predict.size(); ++m)
        layers.ml += report("ml.predict_us.v" + std::to_string(m), timers.predict[m]);
    layers.av += report("av.sensor_us", timers.sensor);
    layers.av += report("av.scenario_us", timers.scenario);
    layers.av += report("av.trust_us", timers.trust);
    layers.av += report("av.degraded_us", timers.degraded);
    layers.core += report("core.vote_us", timers.vote);
    layers.core += report("core.health_us", timers.health);
    layers.av += report("av.planner_us", timers.planner);
    layers.cpu_ms_per_op = 1e3 * cpu_per_drive;
    layers.ml_inferences_per_op =
        static_cast<double>(first.inferences) / static_cast<double>(setup.drives.size());

    std::uint64_t decided = 0, skipped = 0, no_output = 0, stop = 0, reduced = 0,
                  rejuvenations = 0;
    for (const av::RunMetrics& m : first.runs) {
        decided += static_cast<std::uint64_t>(m.decided_frames);
        skipped += static_cast<std::uint64_t>(m.skipped_frames);
        no_output += static_cast<std::uint64_t>(m.no_output_frames);
        stop += static_cast<std::uint64_t>(m.stop_frames);
        reduced += static_cast<std::uint64_t>(m.reduced_frames);
        rejuvenations += m.health_stats.reactive_rejuvenations +
                         m.health_stats.proactive_rejuvenations;
    }
    detail("av.decided_frames", static_cast<double>(decided), "count");
    detail("av.skipped_frames", static_cast<double>(skipped), "count");
    detail("av.no_output_frames", static_cast<double>(no_output), "count");
    detail("av.stop_frames", static_cast<double>(stop), "count");
    detail("av.reduced_frames", static_cast<double>(reduced), "count");
    detail("core.rejuvenations", static_cast<double>(rejuvenations), "count");
    layers.add_to(result);
    return result;
}

}  // namespace perfbench
