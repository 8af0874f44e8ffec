// dspn_sweep: steady-state solves of two parameter grids through a fresh
// dspn::SweepEngine per repetition (no disk cache, 2 solver threads).
//
//  - The Fig. 4 grid (bench/sweep_common.hpp): 360 points of the paper's
//    multi-version DSPN family, all below the dense cutoff, so this is the
//    dense-LU / MRGP path with graph reuse and memoized solves.
//  - A closed cyclic queueing network well above the dense cutoff, swept
//    over one station's rate: the sparse Gauss-Seidel path, where rebinds
//    and warm starts do the work.
//
// One unit of work is one repetition, a solve of both grids: p50_ms is its
// median time, rate_per_s the median of grid points solved per second.
// Correctness: the Fig. 4 300 s row equals Table 5 to 1e-6, the cyclic
// network matches its product-form solution, and every repetition's
// distributions are bit-identical to the warm-up's.

#include <cmath>
#include <cstdio>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "mvreju/dspn/reachability.hpp"
#include "mvreju/dspn/solver.hpp"
#include "mvreju/dspn/sweep.hpp"
#include "mvreju/num/sparse_markov.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/reliability/functions.hpp"
#include "mvreju/util/rng.hpp"
#include "sweep_common.hpp"

namespace perfbench {
namespace {

using namespace mvreju;

constexpr std::size_t kSolverThreads = 2;
constexpr int kSetupRepeats = 3;
constexpr int kMinRepetitions = 5;

// Cyclic network: 6 stations, 9 customers -> C(14, 5) = 2002 tangible
// states, far above the dense cutoff of 64.
constexpr std::size_t kStations = 6;
constexpr int kCustomers = 9;
constexpr int kCyclicPoints = 24;

dspn::PetriNet cyclic_network(const std::vector<double>& rates) {
    dspn::PetriNet net;
    std::vector<dspn::PlaceId> places;
    // std::string(1, c) += ... rather than "c" + ...: GCC 12 reports a false
    // -Wrestrict on the latter.
    const auto name = [](char prefix, std::size_t i) {
        return std::string(1, prefix) += std::to_string(i);
    };
    for (std::size_t i = 0; i < rates.size(); ++i)
        places.push_back(net.add_place(name('s', i), i == 0 ? kCustomers : 0));
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto t = net.add_exponential(name('t', i), rates[i]);
        net.add_input_arc(t, places[i]);
        net.add_output_arc(t, places[(i + 1) % rates.size()]);
    }
    return net;
}

/// Station rates per grid point; the seed perturbs the fixed stations and
/// the sweep moves station 0 smoothly, the warm-start setting.
std::vector<std::vector<double>> cyclic_grid(std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<double> base(kStations);
    for (double& r : base) r = rng.uniform(0.6, 2.0);
    std::vector<std::vector<double>> grid;
    for (int i = 0; i < kCyclicPoints; ++i) {
        std::vector<double> rates = base;
        rates[0] = 0.5 + 1.5 * i / (kCyclicPoints - 1);
        grid.push_back(std::move(rates));
    }
    return grid;
}

/// Largest deviation of a solved point from the Gordon-Newell product form
/// pi(n) ~ prod_i (1/r_i)^{n_i}.
double product_form_error(const std::vector<double>& rates,
                          const std::vector<dspn::Marking>& markings,
                          const std::vector<double>& pi) {
    std::vector<double> weight(markings.size());
    double g = 0.0;
    for (std::size_t s = 0; s < markings.size(); ++s) {
        double w = 1.0;
        for (std::size_t i = 0; i < rates.size(); ++i)
            w *= std::pow(1.0 / rates[i], markings[s][i]);
        weight[s] = w;
        g += w;
    }
    double err = 0.0;
    for (std::size_t s = 0; s < markings.size(); ++s)
        err = std::max(err, std::fabs(pi[s] - weight[s] / g));
    return err;
}

struct Grids {
    std::vector<std::vector<double>> fig4;
    std::vector<std::vector<double>> cyclic;
};

/// Both grids' points and the engines that solved them (rewards and
/// markings are looked up through the solving engine).
struct Solved {
    std::unique_ptr<dspn::SweepEngine> fig4_engine;
    std::unique_ptr<dspn::SweepEngine> cyclic_engine;
    std::vector<dspn::SweepPoint> fig4;
    std::vector<dspn::SweepPoint> cyclic;
};

dspn::SweepOptions engine_options() {
    dspn::SweepOptions options;
    options.threads = kSolverThreads;  // cache_dir stays empty: no disk cache
    return options;
}

Solved solve_both(const Grids& grids) {
    Solved out;
    out.fig4_engine = std::make_unique<dspn::SweepEngine>(bench::multiversion_factory(),
                                                          engine_options());
    out.fig4 = out.fig4_engine->run(grids.fig4);
    out.cyclic_engine = std::make_unique<dspn::SweepEngine>(cyclic_network, engine_options());
    out.cyclic = out.cyclic_engine->run(grids.cyclic);
    return out;
}

/// Table 5 oracle on the Fig. 4 (a) 300 s row, plus the product-form
/// oracle on the cyclic grid's first and last points.
void check_oracles(const Grids& grids, const Solved& solved, Result& result) {
    // Panel a sweeps the rejuvenation interval; 300 s is its fifth value.
    const std::vector<double> xs = bench::fig4_xs('a');
    std::size_t row = 0;
    while (row < xs.size() && xs[row] != 300.0) ++row;
    result.check(row < xs.size(), "Fig. 4 (a) has a 300 s row");
    if (row == xs.size()) return;
    // Column order 1v-NR, 1v-R, 2v-NR, 2v-R, 3v-NR, 3v-R.
    const double table5[6] = {0.848211, 0.920171, 0.943876,
                              0.969077, 0.903191, 0.954265};
    const reliability::Params params = reliability::paper_params();
    for (std::size_t c = 0; c < 6; ++c) {
        const dspn::SweepPoint& point = solved.fig4[row * 6 + c];
        const double value = solved.fig4_engine->expected_reward(
            point, [&](const std::vector<double>& pv, const dspn::Marking& m) {
                return bench::marking_reliability(pv, m, params);
            });
        char what[96];
        std::snprintf(what, sizeof what, "Fig. 4 300 s row column %zu = %.6f (Table 5: %.6f)",
                      c, value, table5[c]);
        result.check(std::fabs(value - table5[c]) <= 1e-6, what);
    }
    for (const std::size_t i : {std::size_t{0}, grids.cyclic.size() - 1}) {
        const double err =
            product_form_error(grids.cyclic[i], solved.cyclic_engine->markings(grids.cyclic[i]),
                               solved.cyclic[i].pi);
        result.check(err <= 1e-9, "cyclic network point " + std::to_string(i) +
                                      " matches its product form (error " +
                                      std::to_string(err) + ")");
    }
}

bool same_distributions(const Solved& a, const Solved& b) {
    if (a.fig4.size() != b.fig4.size() || a.cyclic.size() != b.cyclic.size())
        return false;
    for (std::size_t i = 0; i < a.fig4.size(); ++i)
        if (a.fig4[i].pi != b.fig4[i].pi) return false;
    for (std::size_t i = 0; i < a.cyclic.size(); ++i)
        if (a.cyclic[i].pi != b.cyclic[i].pi) return false;
    return true;
}

/// Per-call times of the public functions the engine composes, replayed on
/// one grid in grid order the way the engine composes them: the net factory
/// per point, a cold reachability build per distinct structure, a rebind of
/// a prototype copy per point, and one solve per distinct (structure,
/// rates, net constants) key — delay families (same structure and rates,
/// different deterministic delays) as one dspn_solve_family call, the rest
/// warm-started from the previous solve as the engine's wavefront would.
struct CallTimes {
    double net_build_us = 0.0;
    double reach_build_us = 0.0;
    double rebind_us = 0.0;
    double solve_us = 0.0;
    std::size_t net_builds = 0;
    std::size_t reach_builds = 0;
    std::size_t rebinds = 0;
    std::size_t solves = 0;

    void add(const CallTimes& other) {
        net_build_us += other.net_build_us;
        reach_build_us += other.reach_build_us;
        rebind_us += other.rebind_us;
        solve_us += other.solve_us;
        net_builds += other.net_builds;
        reach_builds += other.reach_builds;
        rebinds += other.rebinds;
        solves += other.solves;
    }

    void replay(const std::vector<std::vector<double>>& grid,
                const dspn::SweepEngine::Factory& factory) {
        struct Bound {
            std::unique_ptr<dspn::PetriNet> net;
            std::unique_ptr<dspn::ReachabilityGraph> graph;
        };
        std::map<std::uint64_t, dspn::ReachabilityGraph> prototypes;
        std::set<std::array<std::uint64_t, 3>> seen;
        std::map<std::array<std::uint64_t, 2>, std::vector<Bound>> families;
        std::vector<std::array<std::uint64_t, 2>> order;  // first-seen order
        for (const std::vector<double>& params : grid) {
            auto net = std::make_unique<dspn::PetriNet>();
            net_build_us += time_us([&] { *net = factory(params); });
            ++net_builds;
            const std::uint64_t structure = dspn::structure_hash(*net);
            auto proto = prototypes.find(structure);
            if (proto == prototypes.end()) {
                std::optional<dspn::ReachabilityGraph> built;
                reach_build_us += time_us([&] { built.emplace(*net); });
                ++reach_builds;
                proto = prototypes.emplace(structure, std::move(*built)).first;
            }
            auto graph = std::make_unique<dspn::ReachabilityGraph>(proto->second);
            bool ok = false;
            rebind_us += time_us([&] { ok = graph->rebind(*net); });
            ++rebinds;
            if (!ok) continue;
            const std::array<std::uint64_t, 2> family{structure,
                                                      dspn::graph_rates_hash(*graph)};
            if (!seen.insert({family[0], family[1], dspn::numeric_hash(*net)}).second)
                continue;  // the engine memoizes this point
            auto& members = families[family];
            if (members.empty()) order.push_back(family);
            members.push_back({std::move(net), std::move(graph)});
        }
        std::vector<double> previous;
        for (const auto& family : order) {
            const std::vector<Bound>& members = families[family];
            if (members.size() > 1 && members.front().graph->has_deterministic()) {
                std::vector<const dspn::ReachabilityGraph*> graphs;
                for (const Bound& b : members) graphs.push_back(b.graph.get());
                const std::vector<dspn::DspnSolveOptions> opts(graphs.size());
                solve_us += time_us([&] { (void)dspn::dspn_solve_family(graphs, opts); });
                ++solves;
                continue;
            }
            for (const Bound& b : members) {
                dspn::DspnSolveOptions opts;
                if (previous.size() == b.graph->state_count()) opts.warm_pi = &previous;
                dspn::DspnSolution solution;
                solve_us += time_us([&] { solution = dspn::dspn_solve(*b.graph, opts); });
                ++solves;
                previous = std::move(solution.pi);
            }
        }
    }
};

double per_call(double total_us, std::size_t calls) {
    return calls == 0 ? 0.0 : total_us / static_cast<double>(calls);
}

}  // namespace

Result run_dspn(const RunOptions& options) {
    Result result;

    // Set-up, repeated: grid construction plus one checked warm-up solve.
    Grids grids;
    Solved reference;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        grids.fig4 = bench::fig4_grid(reliability::TimingParams{});
        grids.cyclic = cyclic_grid(options.seed);
        reference = solve_both(grids);
        check_oracles(grids, reference, result);
        setup_s.push_back(seconds_since(t0));
    }
    std::printf("dspn_sweep: fig4 %zu points, cyclic %zu points x %zu states\n",
                grids.fig4.size(), grids.cyclic.size(), reference.cyclic.front().pi.size());
    result.check(reference.cyclic.front().pi.size() > num::StationaryOptions{}.dense_cutoff,
                 "cyclic grid lies above the dense cutoff");

    // Measurement: fresh engines per repetition until the budget is spent.
    const double points = static_cast<double>(grids.fig4.size() + grids.cyclic.size());
    std::vector<double> grid_s;
    std::vector<double> points_per_s;
    const auto gs_sweeps_total = [] {
        return counter_value(obs::metrics().snapshot(), "num.gs.sweeps");
    };
    const std::uint64_t gs_before = gs_sweeps_total();
    const double cpu_before = cpu_seconds();
    Solved last;
    const auto start = Clock::now();
    while (grid_s.size() < kMinRepetitions || seconds_since(start) < options.seconds) {
        const auto t0 = Clock::now();
        Solved current = solve_both(grids);
        grid_s.push_back(seconds_since(t0));
        points_per_s.push_back(points / grid_s.back());
        ++result.attempted;
        const bool same = same_distributions(current, reference);
        last = std::move(current);  // the old engines die outside the timing
        if (!same) {
            ++result.failed;
            result.check(false, "repetition " + std::to_string(grid_s.size()) +
                                    " differs from the warm-up solve");
        }
    }
    const double reps = static_cast<double>(grid_s.size());
    const double cpu_per_rep = (cpu_seconds() - cpu_before) / reps;
    const double gs_sweeps = static_cast<double>(gs_sweeps_total() - gs_before) / reps;
    std::printf("dspn_sweep: %zu repetitions in %.2f s\n", grid_s.size(),
                seconds_since(start));

    if (!options.trace) {
        detail("grid_s", median(grid_s), "s");
        result.add("setup_s", median(setup_s), "s");
        result.add("p50_ms", 1e3 * median(grid_s), "ms");
        result.add("rate_per_s", median(points_per_s), "1/s");
        return result;
    }

    // Per-layer: exact engine counts of one repetition (both grids) ...
    const dspn::SweepStats& a = last.fig4_engine->stats();
    const dspn::SweepStats& b = last.cyclic_engine->stats();
    detail("dspn.points", static_cast<double>(a.points + b.points), "count");
    detail("dspn.solves", static_cast<double>(a.solves + b.solves), "count");
    detail("dspn.cache_hits", static_cast<double>(a.cache_hits + b.cache_hits), "count");
    detail("dspn.rebuilds", static_cast<double>(a.rebuilds + b.rebuilds), "count");
    detail("dspn.rebinds", static_cast<double>(a.rebinds + b.rebinds), "count");
    detail("dspn.family_batches", static_cast<double>(a.family_batches + b.family_batches),
           "count");
    detail("dspn.warm_started", static_cast<double>(a.warm_started + b.warm_started),
           "count");
    detail("num.gs_sweeps", gs_sweeps, "count");

    // ... and per-call times of the functions it composes. The Fig. 4 nets
    // come from core::build_multiversion_dspn, the cyclic ones straight
    // from the dspn::PetriNet builder, so their build time is dspn's.
    CallTimes fig4_calls;
    CallTimes cyclic_calls;
    fig4_calls.replay(grids.fig4, bench::multiversion_factory());
    cyclic_calls.replay(grids.cyclic, cyclic_network);
    // Engine work explained by per-call time x the engine's own call counts
    // (one factory call per point, one solve call per delay family); the
    // rest is scheduling, hashing, memoization and the 2-thread fan-out.
    const auto solve_calls = [](const dspn::SweepStats& st) {
        return static_cast<double>(st.solves) - static_cast<double>(st.family_members) +
               static_cast<double>(st.family_batches);
    };
    const auto engine_us = [&](const CallTimes& c, const dspn::SweepStats& st) {
        return per_call(c.reach_build_us, c.reach_builds) * static_cast<double>(st.rebuilds) +
               per_call(c.rebind_us, c.rebinds) * static_cast<double>(st.rebinds) +
               per_call(c.solve_us, c.solves) * solve_calls(st);
    };
    const auto build_us = [&](const CallTimes& c, const dspn::SweepStats& st) {
        return per_call(c.net_build_us, c.net_builds) * static_cast<double>(st.points);
    };
    CallTimes both = fig4_calls;
    both.add(cyclic_calls);
    detail("core.net_build_us", per_call(both.net_build_us, both.net_builds), "us");
    detail("dspn.reach_build_us", per_call(both.reach_build_us, both.reach_builds), "us");
    detail("dspn.rebind_us", per_call(both.rebind_us, both.rebinds), "us");
    detail("dspn.solve_us", per_call(both.solve_us, both.solves), "us");

    const double rep_us = 1e6 * median(grid_s);
    LayerReport layers;
    layers.cpu_ms_per_op = 1e3 * cpu_per_rep;
    layers.core = build_us(fig4_calls, a) / rep_us;
    layers.dspn = (build_us(cyclic_calls, b) + engine_us(fig4_calls, a) +
                   engine_us(cyclic_calls, b)) / rep_us;
    layers.dspn_solves_per_op = static_cast<double>(a.solves + b.solves);
    layers.gs_sweeps_per_op = gs_sweeps;
    layers.add_to(result);
    return result;
}

}  // namespace perfbench
