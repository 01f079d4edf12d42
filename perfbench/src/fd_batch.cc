/**
 * @file
 * fd-batch: in-process SimEngine::run_batch on the gradient kernel for
 * every library robot, 4-, 64- and 1024-packet batches interleaved.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "accel/design.h"
#include "accel/sim_engine.h"
#include "checks.h"
#include "core/design_space.h"
#include "dynamics/finite_diff.h"
#include "dynamics/robot_state.h"
#include "layers.h"
#include "models.h"
#include "obs/wall_trace.h"
#include "topology/topology_info.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace ra = roboshape::accel;
namespace rd = roboshape::dynamics;
namespace rt = roboshape::topology;

/** Distinct input states per robot; batches cycle through them. */
constexpr std::size_t kPool = 64;
/** Batch sizes; a round runs one batch of each size per robot. */
constexpr std::size_t kSizes[] = {4, 64, 1024};
/** Tolerances: host library (as tests/test_accel.cc), finite
 *  differences of ABA (relative, central differences at eps 1e-6), and
 *  the RNEA round trip of the input torque (relative). */
constexpr double kHostTol = 1e-10;
constexpr double kFdTol = 1e-3;
constexpr double kTauTol = 1e-9;
/** Packets per robot whose gradients are checked by finite differences. */
constexpr std::size_t kFdSample = 2;

ra::AcceleratorParams
knobs(rt::RobotId id, const rt::RobotModel &model)
{
    switch (id) {
      case rt::RobotId::kIiwa: return {7, 7, 7};
      case rt::RobotId::kHyq: return {3, 3, 6};
      case rt::RobotId::kBaxter: return {4, 4, 4};
      default: break;
    }
    const rt::TopologyInfo topo(model);
    const std::size_t n = model.num_links();
    return {n, n, roboshape::core::best_block_size(topo)};
}

struct Robot
{
    rt::RobotId id;
    std::unique_ptr<ra::AcceleratorDesign> design;
    std::unique_ptr<ra::SimEngine> engine;
    std::vector<rd::RobotState> states;
    std::vector<rd::ForwardDynamicsGradients> host;
    std::vector<ra::InputPacket> packets; ///< kPool + 1024, cyclic.
    std::vector<ra::EngineResult> single;  ///< run() output per state.
    std::vector<bool> bad; ///< State whose run() failed a host check.
    std::vector<ra::EngineResult> out;     ///< Batch outputs, reused.
    ra::SimEngine::BatchWorkspace ws;
};

struct Batch
{
    std::size_t robot, size_index, offset;
};

struct Loop
{
    std::vector<double> us[3];
    std::uint64_t start_ns = 0;
    std::vector<std::uint64_t> end_ns;
    std::vector<double> busy_s_of, work, b4_us; ///< Per batch.
    std::uint64_t packets = 0;
    double busy_s = 0.0;
    std::uint64_t batches = 0;
    std::uint64_t failed = 0; ///< Batches with a failed check.

    double rate() const
    {
        return busy_s > 0 ? static_cast<double>(packets) / busy_s : 0.0;
    }
};

/**
 * Seeded round: one batch of every size per robot, each at a seeded
 * offset into the robot's input pool, in a new seeded order each time.
 * The order sets what runs before each batch (whether the executor's
 * workers are still awake), so a fixed order would make the 4-packet
 * latency depend on the seed.
 */
std::vector<Batch>
make_round(std::size_t robots, Rng &rng)
{
    std::vector<Batch> round;
    for (std::size_t r = 0; r < robots; ++r)
        for (std::size_t s = 0; s < 3; ++s)
            round.push_back({r, s, rng.uniform(0, kPool - 1)});
    return round;
}

/** Runs whole rounds until @p seconds pass; checks every output. */
Loop
batch_loop(std::vector<Robot> &robots, std::vector<Batch> &round, Rng &rng,
           double seconds, Result &r, bool traced,
           std::map<std::string, std::pair<double, std::size_t>> *spans)
{
    Loop loop;
    loop.start_ns = now_ns();
    const std::uint64_t deadline =
        loop.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    do {
        for (std::size_t i = round.size(); i > 1; --i)
            std::swap(round[i - 1], round[rng.uniform(0, i - 1)]);
        for (const Batch &b : round) {
            Robot &rb = robots[b.robot];
            const std::size_t size = kSizes[b.size_index];
            const std::span<const ra::InputPacket> in(
                rb.packets.data() + b.offset, size);
            const std::span<ra::EngineResult> out(rb.out.data(), size);
            const std::uint64_t t0 = now_ns();
            rb.engine->run_batch(in, out, rb.ws);
            const std::uint64_t t1 = now_ns();
            loop.us[b.size_index].push_back(static_cast<double>(t1 - t0) * 1e-3);
            loop.busy_s += seconds_between(t0, t1);
            loop.end_ns.push_back(t1);
            loop.busy_s_of.push_back(seconds_between(t0, t1));
            loop.work.push_back(static_cast<double>(size));
            loop.b4_us.push_back(b.size_index == 0
                                     ? static_cast<double>(t1 - t0) * 1e-3
                                     : -1.0);
            loop.packets += size;
            ++loop.batches;
            // A batch fails once if any packet differs from run(), or if
            // run() itself failed its host check on one of its states.
            bool ok = true;
            for (std::size_t j = 0; ok && j < size; ++j) {
                const std::size_t k = (b.offset + j) % kPool;
                const std::string e = checks::bit_identical(out[j], rb.single[k]);
                if (!e.empty())
                    r.check_failed(std::string(rt::robot_name(rb.id)) + ": " + e);
                ok = e.empty() && !rb.bad[k];
            }
            loop.failed += ok ? 0 : 1;
            if (traced && spans) {
                for (const roboshape::obs::WallSpan &s :
                     roboshape::obs::wall_trace_spans()) {
                    auto &slot = (*spans)[s.name];
                    slot.first += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3;
                    ++slot.second;
                }
                roboshape::obs::clear_wall_trace();
            }
        }
    } while (now_ns() < deadline);
    return loop;
}

} // namespace

void
run_fd_batch(const Options &o, Result &r)
{
    r.note("host.spin_iterations_per_s",
           std::to_string(spin_all_cores(kWarmupSpinSeconds)));
    // Set-up, part one: models, designs, and compiled engines.
    const std::uint64_t setup0 = now_ns();
    const std::vector<rt::RobotId> ids = library_robots();
    std::vector<Robot> robots(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const rt::RobotModel model = rt::build_robot(ids[i]);
        robots[i].id = ids[i];
        robots[i].design = std::make_unique<ra::AcceleratorDesign>(
            model, knobs(ids[i], model));
        robots[i].engine = std::make_unique<ra::SimEngine>(*robots[i].design);
    }
    const double compile_s = seconds_between(setup0, now_ns());

    // Inputs and references from the host library, across every core.
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<std::string>> errors(ids.size());
    const auto prepare = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < ids.size();) {
            Robot &rb = robots[i];
            const rt::RobotModel &model = rb.design->model();
            const rt::TopologyInfo topo(model);
            for (std::size_t k = 0; k < kPool; ++k) {
                rb.states.push_back(rd::random_state(
                    model, static_cast<std::uint32_t>(
                               mix_seed(o.seed, i * 7919 + k) & 0x7fffffff)));
                const rd::RobotState &s = rb.states.back();
                rb.host.push_back(rd::forward_dynamics_gradients(
                    model, topo, s.q, s.qd, s.tau));
            }
            for (std::size_t k = 0; k < kPool + 1024; ++k) {
                const std::size_t j = k % kPool;
                ra::InputPacket p;
                p.q = &rb.states[j].q;
                p.qd = &rb.states[j].qd;
                p.qdd = &rb.host[j].qdd;
                p.minv = &rb.host[j].mass_inv;
                rb.packets.push_back(p);
            }
            rb.single.resize(kPool);
            rb.bad.assign(kPool, false);
            rb.out.resize(1024);
            ra::SimEngine::Workspace ws = rb.engine->make_workspace();
            for (std::size_t k = 0; k < kPool; ++k) {
                rb.engine->run(ws, rb.packets[k], rb.single[k]);
                std::string e = checks::gradients(rb.single[k], rb.host[k],
                                                  kHostTol);
                if (e.empty())
                    e = checks::torque(rb.single[k], rb.states[k].tau, kTauTol);
                if (e.empty() && k < kFdSample)
                    e = checks::finite_differences(
                        rb.single[k],
                        rd::fd_dqdd_dq(model, rb.states[k].q, rb.states[k].qd,
                                       rb.states[k].tau),
                        rd::fd_dqdd_dqd(model, rb.states[k].q,
                                        rb.states[k].qd, rb.states[k].tau),
                        kFdTol);
                if (!e.empty()) {
                    rb.bad[k] = true;
                    errors[i].push_back(std::string(rt::robot_name(rb.id)) +
                                        ": " + e);
                }
            }
        }
    };
    {
        std::vector<std::thread> pool;
        const unsigned n = std::max(1u, std::thread::hardware_concurrency());
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(prepare);
        for (std::thread &t : pool)
            t.join();
    }
    for (const auto &list : errors)
        for (const std::string &e : list)
            r.check_failed(e);

    Rng rng(mix_seed(o.seed, 21));
    std::vector<Batch> round = make_round(robots.size(), rng);
    const double seconds = o.trace ? o.seconds / 2 : o.seconds;
    // Set-up, part two: the first (cold) round of batches, which starts
    // the executor's workers and touches every workspace.  Host-library
    // input preparation between the parts is not program work.
    const Loop first = batch_loop(robots, round, rng, 0.0, r, false, nullptr);
    const double setup_s = compile_s + first.busy_s;
    const StealTimeline steal;
    const auto c0 = registry_counters();
    std::pair<std::uint64_t, std::uint64_t> ticks;
    host_steal_share(ticks);
    const ProcSample p0 = proc_sample();
    const std::uint64_t w0 = now_ns();
    const Loop loop = batch_loop(robots, round, rng, seconds, r, false, nullptr);
    const double wall = seconds_between(w0, now_ns());
    const ProcSample p1 = proc_sample();
    r.note("host.steal_share", std::to_string(host_steal_share(ticks)));
    const auto c1 = registry_counters();
    r.attempted += loop.batches;
    r.failed += loop.failed;

    if (!o.trace) {
        r.metric("setup_s", setup_s, "s");
        r.detail("setup_s.engine_compile_s", compile_s, "s");
        r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        // Medians over 1 s windows (see Windows in common.h): gradients
        // per second of run_batch time, and the 4-packet batch latency.
        const Windows w = window_stats(loop.start_ns, 1.0, loop.end_ns,
                                       loop.busy_s_of, loop.work, loop.b4_us,
                                       false, steal);
        r.metric("throughput_per_s", quantile(w.rate, 0.5), "1/s",
                 loop.batches);
        r.metric("latency_p50_ms", quantile(w.p50, 0.5) * 1e-3, "ms",
                 w.samples);
        r.note("e2e.windows", std::to_string(w.rate.size()) + " windows of 1 s");
        return;
    }

    const double batches = static_cast<double>(loop.batches);
    for (const char *name :
         {"exec.regions", "exec.tasks", "exec.steals", "exec.parks"})
        r.metric(name, static_cast<double>(counter_delta(c0, c1, name)) / batches,
                 "count/op");
    r.metric("proc.cpu_per_wall", (p1.cpu_s - p0.cpu_s) / wall, "ratio");
    r.metric("proc.cpu_us_per_op", (p1.cpu_s - p0.cpu_s) * 1e6 / batches, "us");
    r.metric("proc.ctx_switches_per_op",
             static_cast<double>(p1.ctx_switches - p0.ctx_switches) / batches,
             "count/op");
    const double packets =
        static_cast<double>(counter_delta(c0, c1, "sim.batch_packets"));
    const double tail =
        static_cast<double>(counter_delta(c0, c1, "sim.batch_tail_packets"));
    r.detail("accel.lane_packet_share",
             packets > 0 ? (packets - tail) / packets : 0, "ratio");
    const char *size_names[] = {"b4", "b64", "b1024"};
    for (int s = 0; s < 3; ++s)
        r.detail(std::string("accel.run_batch_us_p50.") + size_names[s],
                 quantile(loop.us[s], 0.5), "us", loop.us[s].size());

    // Single-packet run(), the AcceleratorLinearizer path, on the same
    // packets and the shipped knobs (the replay below uses full knobs).
    std::vector<double> run_us;
    for (Robot &rb : robots) {
        ra::SimEngine::Workspace ws = rb.engine->make_workspace();
        ra::EngineResult out;
        for (std::size_t k = 0; k < kPool; ++k) {
            const std::uint64_t t0 = now_ns();
            rb.engine->run(ws, rb.packets[k], out);
            run_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
    }
    r.detail("accel.run_us.batch_robots", quantile(run_us, 0.5), "us",
             run_us.size());
    std::vector<std::string> urdfs;
    for (const rt::RobotId id : ids)
        urdfs.push_back(rt::robot_urdf(id));
    replay_layers(urdfs, o.seed, r);

    // Traced phase: the engine's wall trace on, phase spans aggregated.
    std::map<std::string, std::pair<double, std::size_t>> spans;
    roboshape::obs::clear_wall_trace();
    roboshape::obs::set_wall_trace_enabled(true);
    const Loop traced = batch_loop(robots, round, rng, seconds, r, true, &spans);
    roboshape::obs::set_wall_trace_enabled(false);
    roboshape::obs::clear_wall_trace();
    r.attempted += traced.batches;
    r.failed += traced.failed;
    const auto per_packet = [&spans](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() || it->second.second == 0
                   ? 0.0
                   : it->second.first / static_cast<double>(it->second.second);
    };
    r.detail("accel.marshal_us", per_packet("sim.marshal"), "us",
             spans["sim.marshal"].second);
    r.detail("accel.position_pass_us", per_packet("sim.position_pass"), "us",
             spans["sim.position_pass"].second);
    r.detail("accel.velocity_pass_us", per_packet("sim.velocity_pass"), "us",
             spans["sim.velocity_pass"].second);
    r.detail("accel.mm_solve_us", per_packet("sim.mm_solve"), "us",
             spans["sim.mm_solve"].second);
    r.metric("trace.overhead",
             traced.rate() > 0 ? loop.rate() / traced.rate() - 1.0 : 0.0,
             "share");
    r.note("trace.overhead_base",
           "untraced " + std::to_string(loop.rate()) + " vs traced " +
               std::to_string(traced.rate()) + " gradients/s");
}

} // namespace perfbench
