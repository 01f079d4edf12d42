/**
 * @file
 * sweep-scale: in-process DesignSpace::sweep plus both Pareto passes over
 * large generated robots (32-96 links) and the humanoid.
 */

#include <algorithm>

#include "accel/design.h"
#include "checks.h"
#include "core/design_space.h"
#include "layers.h"
#include "models.h"
#include "obs/wall_trace.h"
#include "topology/urdf_parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace ra = roboshape::accel;
namespace rc = roboshape::core;
namespace rt = roboshape::topology;

/**
 * Generated robots, each swept every round.  Family and star limb count
 * are fixed per size because they set the schedule caches' size (a chain
 * has the most gradient tasks) and so the peak memory; the seed shapes
 * the trees and sets geometry and inertias.
 */
struct Slot
{
    std::size_t links;
    Family family;
    std::size_t limbs; ///< Stars only.
};
constexpr Slot kSlots[] = {{32, Family::kStar, 4},
                           {48, Family::kTree, 0},
                           {64, Family::kChain, 0},
                           {80, Family::kStar, 8},
                           {96, Family::kTree, 0}};
/** Sampled points per model checked against the 3-D frontier and a
 *  freshly generated AcceleratorDesign. */
constexpr std::size_t kSample3d = 256;
constexpr std::size_t kSampleDesigns = 4;

struct Model
{
    std::string label;
    std::string urdf;
    rt::RobotModel model;
    std::uint64_t points = 0;
    std::vector<rc::DesignPoint> frontier; ///< From the checked first sweep.
    bool checked = false;
    bool bad = false; ///< The first sweep failed its full check.
};

struct Loop
{
    std::vector<double> sweep_us, pareto_us, pareto3d_us;
    std::vector<double> round_rate; ///< Points per busy second, per round.
    /** Median latency of one model's sweep plus both Pareto passes, per
     *  round. */
    std::vector<double> round_p50_us;
    std::vector<std::uint64_t> round_start_ns, round_end_ns;
    std::uint64_t points = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t failed = 0; ///< Sweeps with a failed check.
    double busy_s = 0.0;

    double rate() const
    {
        return busy_s > 0 ? static_cast<double>(points) / busy_s : 0.0;
    }
};

/** Full check of one sweep (first time a model is swept in the run). */
void
check_sweep(Model &m, const rc::DesignSpace &space,
            const std::vector<rc::DesignPoint> &f2,
            const std::vector<rc::DesignPoint> &f3, std::uint64_t seed,
            Result &r)
{
    const std::vector<rc::DesignPoint> &points = space.points();
    std::string e = checks::frontier_2d(points, f2);
    if (e.empty()) {
        Rng rng(mix_seed(seed, points.size()));
        std::vector<std::size_t> sample;
        for (std::size_t i = 0; i < kSample3d; ++i)
            sample.push_back(rng.uniform(0, points.size() - 1));
        e = checks::frontier_3d_sample(points, f3, sample);
        for (std::size_t i = 0; e.empty() && i < kSampleDesigns; ++i) {
            const rc::DesignPoint &p = points[sample[i]];
            const ra::AcceleratorDesign fresh(m.model, p.params);
            if (fresh.cycles_no_pipelining() != p.cycles)
                e = "point " + p.params.to_string() + " has " +
                    std::to_string(p.cycles) +
                    " cycles, a fresh AcceleratorDesign has " +
                    std::to_string(fresh.cycles_no_pipelining());
        }
    }
    if (!e.empty())
        r.check_failed("sweep-scale " + m.label + ": " + e);
    m.frontier = f2;
    m.checked = true;
    m.bad = !e.empty();
}

Loop
sweep_loop(std::vector<Model> &models, double seconds, std::uint64_t seed,
           Result &r)
{
    Loop loop;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
        const double busy0 = loop.busy_s;
        const std::uint64_t points0 = loop.points;
        loop.round_start_ns.push_back(now_ns());
        std::vector<double> round_us;
        for (Model &m : models) {
            const std::uint64_t t0 = now_ns();
            const rc::DesignSpace space = rc::DesignSpace::sweep(m.model);
            const std::uint64_t t1 = now_ns();
            const std::vector<rc::DesignPoint> f2 = space.pareto_frontier();
            const std::uint64_t t2 = now_ns();
            const std::vector<rc::DesignPoint> f3 = space.pareto_frontier_3d();
            const std::uint64_t t3 = now_ns();
            loop.sweep_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
            loop.pareto_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
            loop.pareto3d_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
            loop.busy_s += seconds_between(t0, t3);
            round_us.push_back(static_cast<double>(t3 - t0) * 1e-3);
            loop.points += space.points().size();
            ++loop.sweeps;
            // A sweep fails once if any of its checks fails; repeats of a
            // model whose first sweep failed match a wrong frontier.
            bool ok = true;
            if (space.points().size() != m.points) {
                r.check_failed("sweep-scale " + m.label + ": " +
                               std::to_string(space.points().size()) +
                               " points, expected N^3 = " +
                               std::to_string(m.points));
                ok = false;
            }
            if (!m.checked) {
                check_sweep(m, space, f2, f3, seed, r);
            } else if (f2.size() != m.frontier.size() ||
                       !std::equal(f2.begin(), f2.end(), m.frontier.begin(),
                                   [](const rc::DesignPoint &a,
                                      const rc::DesignPoint &b) {
                                       return a.params == b.params &&
                                              a.cycles == b.cycles;
                                   })) {
                r.check_failed("sweep-scale " + m.label +
                               ": frontier changed between repeats");
                ok = false;
            }
            loop.failed += ok && !m.bad ? 0 : 1;
        }
        loop.round_rate.push_back(static_cast<double>(loop.points - points0) /
                                  (loop.busy_s - busy0));
        loop.round_p50_us.push_back(quantile(round_us, 0.5));
        loop.round_end_ns.push_back(now_ns());
    } while (now_ns() < deadline);
    return loop;
}

} // namespace

void
run_sweep_scale(const Options &o, Result &r)
{
    r.note("host.spin_iterations_per_s",
           std::to_string(spin_all_cores(kWarmupSpinSeconds)));

    // The URDF text is the harness's; parsing it is program work.
    Rng rng(mix_seed(o.seed, 31));
    std::vector<Model> models;
    for (const Slot &slot : kSlots) {
        Model m;
        m.label = std::string(family_name(slot.family)) +
                  std::to_string(slot.links);
        m.urdf = tree_urdf(
            m.label, family_parents(slot.family, slot.links, rng, slot.limbs),
            rng);
        models.push_back(std::move(m));
    }
    Model humanoid;
    humanoid.label = "humanoid";
    humanoid.urdf = rt::robot_urdf(rt::RobotId::kHumanoid);
    models.push_back(std::move(humanoid));

    // Set-up: parse every model, then sweep each once, cold.  The first
    // sweep of a model is also the one the full check covers.
    const std::uint64_t setup0 = now_ns();
    for (Model &m : models)
        m.model = rt::parse_urdf(m.urdf);
    const double parse_s = seconds_between(setup0, now_ns());
    for (Model &m : models) {
        const std::uint64_t n = m.model.num_links();
        m.points = n * n * n;
    }
    const Loop first = sweep_loop(models, 0.0, o.seed, r);
    const double setup_s = parse_s + first.busy_s;

    const double seconds = o.trace ? o.seconds / 2 : o.seconds;
    const StealTimeline steal;
    const auto c0 = registry_counters();
    std::pair<std::uint64_t, std::uint64_t> ticks;
    host_steal_share(ticks);
    const ProcSample p0 = proc_sample();
    const std::uint64_t w0 = now_ns();
    const Loop loop = sweep_loop(models, seconds, o.seed, r);
    const double wall = seconds_between(w0, now_ns());
    const ProcSample p1 = proc_sample();
    r.note("host.steal_share", std::to_string(host_steal_share(ticks)));
    const auto c1 = registry_counters();
    r.attempted += loop.sweeps;
    r.failed += loop.failed;

    if (!o.trace) {
        r.metric("setup_s", setup_s, "s");
        r.detail("setup_s.parse_s", parse_s, "s");
        r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        // Medians over the quieter half of the rounds (each round sweeps
        // every model once; see quieter_half in common.h).
        std::vector<double> shares, rate, p50_us;
        for (std::size_t i = 0; i < loop.round_rate.size(); ++i)
            shares.push_back(
                steal.share(loop.round_start_ns[i], loop.round_end_ns[i]));
        for (const std::size_t i : quieter_half(shares)) {
            rate.push_back(loop.round_rate[i]);
            p50_us.push_back(loop.round_p50_us[i]);
        }
        r.metric("throughput_per_s", quantile(rate, 0.5), "1/s", rate.size());
        r.metric("latency_p50_ms", quantile(p50_us, 0.5) * 1e-3, "ms",
                 p50_us.size());
        return;
    }

    const double sweeps = static_cast<double>(loop.sweeps);
    for (const char *name :
         {"exec.regions", "exec.tasks", "exec.steals", "exec.parks"})
        r.metric(name, static_cast<double>(counter_delta(c0, c1, name)) / sweeps,
                 "count/op");
    r.metric("proc.cpu_per_wall", (p1.cpu_s - p0.cpu_s) / wall, "ratio");
    r.metric("proc.cpu_us_per_op", (p1.cpu_s - p0.cpu_s) * 1e6 / sweeps, "us");
    r.metric("proc.ctx_switches_per_op",
             static_cast<double>(p1.ctx_switches - p0.ctx_switches) / sweeps,
             "count/op");
    // The timed loop's own split of a sweep (the result line's core.*
    // come from the layer replay, see layers.h).
    r.detail("loop.core.sweep_us", quantile(loop.sweep_us, 0.5), "us",
             loop.sweep_us.size());
    r.detail("loop.core.pareto_us", quantile(loop.pareto_us, 0.5), "us",
             loop.pareto_us.size());
    r.detail("loop.core.pareto3d_us", quantile(loop.pareto3d_us, 0.5), "us",
             loop.pareto3d_us.size());
    std::vector<std::string> urdfs;
    for (const Model &m : models)
        urdfs.push_back(m.urdf);
    replay_layers(urdfs, o.seed, r);

    // Traced phase: the wall trace on (executor worker spans), for the
    // tracing overhead.
    roboshape::obs::clear_wall_trace();
    roboshape::obs::set_wall_trace_enabled(true);
    const Loop traced = sweep_loop(models, seconds, o.seed, r);
    roboshape::obs::set_wall_trace_enabled(false);
    roboshape::obs::clear_wall_trace();
    r.attempted += traced.sweeps;
    r.failed += traced.failed;
    r.metric("trace.overhead",
             traced.rate() > 0 ? loop.rate() / traced.rate() - 1.0 : 0.0,
             "share");
    r.note("trace.overhead_base",
           "untraced " + std::to_string(loop.rate()) + " vs traced " +
               std::to_string(traced.rate()) + " points/s");
}

} // namespace perfbench
