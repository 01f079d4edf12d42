/**
 * @file
 * Layer replays of the traced runs (see layers.h).
 */

#include "layers.h"

#include <memory>

#include "accel/design.h"
#include "accel/sim_engine.h"
#include "client.h"
#include "core/design_space.h"
#include "core/sweep_context.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "net/http.h"
#include "service/cache.h"
#include "service/json_value.h"
#include "topology/topology_info.h"
#include "topology/urdf_parser.h"

namespace perfbench {

namespace ra = roboshape::accel;
namespace rc = roboshape::core;
namespace rd = roboshape::dynamics;
namespace rt = roboshape::topology;

void
replay_layers(const std::vector<std::string> &urdfs, std::uint64_t seed,
              Result &r)
{
    std::vector<double> http, json, urdf, hash, info, list, block, pre,
        speedup, design, sweep, pareto, pareto3d, accel_design, compile, run;
    double list_runs = 0.0, placed = 0.0, conflicts = 0.0;
    for (std::size_t i = 0; i < urdfs.size(); ++i) {
        const std::string body = "{\"urdf\": " + json_quote(urdfs[i]) +
                                 ", \"kernel\": \"gradient\"}";
        const std::string wire = http_request("POST", "/v1/sweep", body);
        const std::string head = wire.substr(0, wire.find("\r\n\r\n") + 4);
        http.push_back(time_calls_us(16, [&] {
            roboshape::net::HttpRequest req;
            roboshape::net::parse_request_head(head, req);
        }));
        json.push_back(time_calls_us(
            4, [&] { (void)roboshape::service::parse_json(body); }));
        urdf.push_back(
            time_calls_us(4, [&] { (void)rt::parse_urdf_checked(urdfs[i]); }));
        const rt::RobotModel model = rt::parse_urdf(urdfs[i]);
        const std::size_t n = model.num_links();
        hash.push_back(time_calls_us(
            16, [&] { (void)roboshape::service::model_hash(model); }));
        info.push_back(
            time_calls_us(8, [&] { rt::TopologyInfo t(model); (void)t; }));

        // Serial scheduling on a fresh context: every knob once.
        rc::SweepContext serial(model);
        const auto c0 = registry_counters();
        std::uint64_t t0 = now_ns();
        for (std::size_t p = 1; p <= n; ++p) {
            serial.forward(p);
            serial.backward(p);
        }
        const double list_us = static_cast<double>(now_ns() - t0) * 1e-3;
        t0 = now_ns();
        for (std::size_t b = 1; b <= n; ++b)
            serial.block_multiply(b);
        const double block_us = static_cast<double>(now_ns() - t0) * 1e-3;
        const auto c1 = registry_counters();
        list_runs += static_cast<double>(counter_delta(c0, c1, "sched.list_runs"));
        placed += static_cast<double>(counter_delta(c0, c1, "sched.tasks_placed"));
        conflicts += static_cast<double>(
            counter_delta(c0, c1, "sched.placement_conflicts"));
        list.push_back(list_us / static_cast<double>(2 * n));
        block.push_back(block_us / static_cast<double>(n));
        rc::SweepContext parallel(model);
        t0 = now_ns();
        parallel.precompute_stage_schedules();
        const double pre_us = static_cast<double>(now_ns() - t0) * 1e-3;
        pre.push_back(pre_us);
        speedup.push_back((list_us + block_us) / pre_us);
        const rt::TopologyInfo topo(model);
        const ra::AcceleratorParams params{n, n, rc::best_block_size(topo)};
        design.push_back(
            time_calls_us(4, [&] { (void)parallel.design(params); }));

        t0 = now_ns();
        const rc::DesignSpace space = rc::DesignSpace::sweep(model);
        const std::uint64_t t1 = now_ns();
        (void)space.pareto_frontier();
        const std::uint64_t t2 = now_ns();
        (void)space.pareto_frontier_3d();
        sweep.push_back(static_cast<double>(t1 - t0) * 1e-3);
        pareto.push_back(static_cast<double>(t2 - t1) * 1e-3);
        pareto3d.push_back(static_cast<double>(now_ns() - t2) * 1e-3);

        // Accelerator layer: design generation, engine compile, and one
        // packet through the engine on host-prepared inputs.
        std::unique_ptr<ra::AcceleratorDesign> d;
        accel_design.push_back(time_calls_us(4, [&] {
            d = std::make_unique<ra::AcceleratorDesign>(model, params);
        }));
        std::unique_ptr<ra::SimEngine> engine;
        compile.push_back(time_calls_us(
            4, [&] { engine = std::make_unique<ra::SimEngine>(*d); }));
        const rd::RobotState s = rd::random_state(
            model, static_cast<std::uint32_t>(mix_seed(seed, i) & 0x7fffffff));
        const rd::ForwardDynamicsGradients host =
            rd::forward_dynamics_gradients(model, topo, s.q, s.qd, s.tau);
        ra::InputPacket packet;
        packet.q = &s.q;
        packet.qd = &s.qd;
        packet.qdd = &host.qdd;
        packet.minv = &host.mass_inv;
        ra::SimEngine::Workspace ws = engine->make_workspace();
        ra::EngineResult out;
        run.push_back(
            time_calls_us(8, [&] { engine->run(ws, packet, out); }));
    }
    const double models = static_cast<double>(urdfs.size());

    r.metric("net.http_parse_us", quantile(http, 0.5), "us", http.size());
    r.metric("service.json_parse_us", quantile(json, 0.5), "us", json.size());
    r.metric("service.model_hash_us", quantile(hash, 0.5), "us", hash.size());
    r.metric("topology.urdf_parse_us_p50", quantile(urdf, 0.5), "us",
             urdf.size());
    r.metric("topology.topology_info_us", quantile(info, 0.5), "us",
             info.size());
    r.metric("sched.list_schedule_us", quantile(list, 0.5), "us", list.size());
    r.metric("sched.block_schedule_us", quantile(block, 0.5), "us",
             block.size());
    // Scheduler counters of the serial schedules, per model.
    r.metric("sched.list_runs", list_runs / models, "count/model");
    r.metric("sched.tasks_placed", placed / models, "count/model");
    r.metric("sched.conflicts_per_placed_task",
             placed > 0 ? conflicts / placed : 0.0, "ratio");
    r.metric("core.precompute_us", quantile(pre, 0.5), "us", pre.size());
    r.metric("core.precompute_speedup", quantile(speedup, 0.5), "ratio",
             speedup.size());
    r.metric("core.design_us", quantile(design, 0.5), "us", design.size());
    r.metric("core.sweep_us", quantile(sweep, 0.5), "us", sweep.size());
    r.metric("core.pareto_us", quantile(pareto, 0.5), "us", pareto.size());
    r.metric("core.pareto3d_us", quantile(pareto3d, 0.5), "us",
             pareto3d.size());
    r.metric("accel.design_us", quantile(accel_design, 0.5), "us",
             accel_design.size());
    r.metric("accel.engine_compile_us", quantile(compile, 0.5), "us",
             compile.size());
    r.metric("accel.run_us", quantile(run, 0.5), "us", run.size());
}

} // namespace perfbench
