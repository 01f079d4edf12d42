/**
 * @file
 * Proves the perfbench checks are not vacuous: each accepts a real output
 * and rejects a corrupted one (a dropped or swapped frontier point, one
 * perturbed gradient entry, a design body taken from another robot).
 * Real bodies come from the daemon's handlers called in-process.
 *
 *   perfbench_check_tests        exit 0 when every case holds
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "dynamics/robot_state.h"
#include "net/http.h"
#include "service/handlers.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

namespace {

namespace ra = roboshape::accel;
namespace rc = roboshape::core;
namespace rt = roboshape::topology;
using DesignPoint = rc::DesignPoint;

int g_failures = 0;

void
expect(bool cond, const char *what, const std::string &detail = "")
{
    std::printf("%s %s%s%s\n", cond ? "ok  " : "FAIL", what,
                detail.empty() ? "" : " -- ", detail.c_str());
    if (!cond)
        ++g_failures;
}

std::string
post(roboshape::service::Service &svc, const std::string &target,
     const std::string &body)
{
    roboshape::net::HttpRequest req;
    req.method = "POST";
    req.target = target;
    req.version = "HTTP/1.1";
    req.body = body;
    return svc.handle(req).body;
}

/** Removes the @p index-th object of the "pareto" array of a sweep body. */
std::string
drop_pareto_entry(const std::string &body, std::size_t index)
{
    std::size_t pos = body.find("\"pareto\"");
    for (std::size_t i = 0; i <= index; ++i)
        pos = body.find('{', pos + 1);
    const std::size_t end = body.find('}', pos);
    std::size_t cut_end = end + 1;
    if (body[cut_end] == ',')
        ++cut_end;
    return body.substr(0, pos) + body.substr(cut_end);
}

} // namespace

int
main()
{
    roboshape::service::Service svc;
    const rt::RobotModel iiwa = rt::build_robot(rt::RobotId::kIiwa);
    const rt::RobotModel hyq = rt::build_robot(rt::RobotId::kHyq);

    // /v1/design: a real body passes; another robot's body is rejected.
    const ra::AcceleratorParams params{3, 2, 4};
    const std::string iiwa_design = post(
        svc, "/v1/design",
        R"({"robot": "iiwa", "max_pes_fwd": 3, "max_pes_bwd": 2, "max_block_size": 4})");
    const std::string hyq_design = post(
        svc, "/v1/design",
        R"({"robot": "HyQ", "max_pes_fwd": 3, "max_pes_bwd": 2, "max_block_size": 4})");
    const ra::AcceleratorDesign iiwa_ref(iiwa, params);
    expect(perfbench::checks::design_body(iiwa_design, iiwa_ref).empty(),
           "design body matches a fresh AcceleratorDesign",
           perfbench::checks::design_body(iiwa_design, iiwa_ref));
    expect(!perfbench::checks::design_body(hyq_design, iiwa_ref).empty(),
           "design body of another robot is rejected");
    std::string tampered = iiwa_design;
    tampered.replace(tampered.find("\"luts\":") + 7, 1, "9");
    expect(!perfbench::checks::design_body(tampered, iiwa_ref).empty(),
           "design body with altered LUTs is rejected");

    // /v1/sweep: real body passes; dropped or swapped entries fail.
    const std::string sweep = post(svc, "/v1/sweep", R"({"robot": "HyQ"})");
    const rc::DesignSpace space = rc::DesignSpace::sweep(hyq);
    const std::vector<DesignPoint> frontier = space.pareto_frontier();
    const std::uint64_t total = perfbench::checks::knob_space_size(
        12, roboshape::sched::KernelKind::kDynamicsGradient);
    expect(perfbench::checks::sweep_body(sweep, 12, total, &frontier).empty(),
           "sweep body matches DesignSpace::sweep",
           perfbench::checks::sweep_body(sweep, 12, total, &frontier));
    expect(!perfbench::checks::sweep_body(drop_pareto_entry(sweep, 1), 12,
                                          total, &frontier)
                .empty(),
           "sweep body with a dropped frontier point is rejected");
    expect(!perfbench::checks::sweep_body(sweep, 12, total + 1, nullptr)
                .empty(),
           "sweep body with the wrong point count is rejected");
    std::vector<DesignPoint> swapped = frontier;
    std::swap(swapped[1], swapped[2]);
    expect(!perfbench::checks::sweep_body(sweep, 12, total, &swapped).empty(),
           "sweep body is rejected against a swapped reference");

    // 2-D frontier properties over every point.
    const std::vector<DesignPoint> &points = space.points();
    expect(perfbench::checks::frontier_2d(points, frontier).empty(),
           "2-D frontier holds its dominance properties",
           perfbench::checks::frontier_2d(points, frontier));
    std::vector<DesignPoint> dropped = frontier;
    dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 2));
    expect(!perfbench::checks::frontier_2d(points, dropped).empty(),
           "2-D frontier with a dropped point is rejected");
    expect(!perfbench::checks::frontier_2d(points, swapped).empty(),
           "2-D frontier with swapped points is rejected");
    std::vector<DesignPoint> worse = frontier;
    worse[1].cycles += 1; // now strictly dominated by the real point
    expect(!perfbench::checks::frontier_2d(points, worse).empty(),
           "2-D frontier holding a dominated point is rejected");

    // 3-D frontier on a sample that includes the dropped point.
    const std::vector<DesignPoint> f3 = space.pareto_frontier_3d();
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < points.size(); i += 37)
        sample.push_back(i);
    expect(perfbench::checks::frontier_3d_sample(points, f3, sample).empty(),
           "3-D frontier holds on the sample",
           perfbench::checks::frontier_3d_sample(points, f3, sample));
    std::vector<DesignPoint> f3_dropped = f3;
    const DesignPoint gone = f3_dropped[f3_dropped.size() / 2];
    f3_dropped.erase(f3_dropped.begin() +
                     static_cast<long>(f3_dropped.size() / 2));
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].params == gone.params)
            sample.push_back(i);
    expect(!perfbench::checks::frontier_3d_sample(points, f3_dropped, sample)
                .empty(),
           "3-D frontier with a dropped point is rejected");

    // Gradients: one perturbed entry fails each gradient check.
    const rt::TopologyInfo topo(iiwa);
    const roboshape::dynamics::RobotState s =
        roboshape::dynamics::random_state(iiwa, 5);
    const auto host = roboshape::dynamics::forward_dynamics_gradients(
        iiwa, topo, s.q, s.qd, s.tau);
    const ra::AcceleratorDesign design(iiwa, {7, 7, 7});
    const ra::SimEngine engine(design);
    ra::SimEngine::Workspace ws = engine.make_workspace();
    ra::InputPacket in;
    in.q = &s.q;
    in.qd = &s.qd;
    in.qdd = &host.qdd;
    in.minv = &host.mass_inv;
    ra::EngineResult out;
    engine.run(ws, in, out);
    expect(perfbench::checks::gradients(out, host, 1e-10).empty(),
           "engine gradients match the host library");
    expect(perfbench::checks::torque(out, s.tau, 1e-9).empty(),
           "engine torque reproduces the input torque");
    ra::EngineResult bad = out;
    bad.dqdd_dq(3, 2) += 1e-8;
    expect(!perfbench::checks::gradients(bad, host, 1e-10).empty(),
           "a perturbed dqdd_dq entry is rejected by the host check");
    expect(!perfbench::checks::bit_identical(bad, out).empty(),
           "a perturbed dqdd_dq entry is rejected by the bit-identity check");
    bad = out;
    bad.dqdd_dqd(0, 6) = std::nextafter(bad.dqdd_dqd(0, 6), 1e300);
    expect(!perfbench::checks::bit_identical(bad, out).empty(),
           "a one-ulp change is rejected by the bit-identity check");
    bad = out;
    bad.tau[4] += 1e-3;
    expect(!perfbench::checks::torque(bad, s.tau, 1e-9).empty(),
           "a perturbed torque is rejected");

    std::printf("%s (%d failure%s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures, g_failures == 1 ? "" : "s");
    return g_failures ? 1 : 0;
}
