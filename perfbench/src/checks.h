/**
 * @file
 * Output checks of the perfbench workloads.  Each returns an empty string
 * when the output holds and a one-line reason when it does not.  They
 * compare against computations made apart from the code path under test
 * (a freshly generated AcceleratorDesign, DesignSpace::sweep, the host
 * dynamics library) or against properties the method must have (Pareto
 * dominance, point counts), and tests/check_tests.cc proves that each
 * rejects a corrupted output.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "accel/design.h"
#include "accel/sim_engine.h"
#include "core/design_space.h"
#include "dynamics/fd_derivatives.h"
#include "topology/robot_model.h"

namespace perfbench {
namespace checks {

namespace ra = roboshape::accel;
namespace rc = roboshape::core;

/** Knob triple the daemon resolves caps to (clamped to [1, N]; block 1
 *  for kernels without a blocked multiply). */
ra::AcceleratorParams resolved_params(std::size_t links,
                                      roboshape::sched::KernelKind kernel,
                                      const ra::AcceleratorParams &caps);

/** Size of a robot's knob space: N * N * (N or 1). */
std::uint64_t knob_space_size(std::size_t links,
                              roboshape::sched::KernelKind kernel);

/** "%016llx" of a model hash, as the daemon prints it. */
std::string hash_hex(std::uint64_t h);

/**
 * /v1/design body: strict JSON, echoed params and link count, and cycles
 * and resources equal to @p reference (a design generated apart from the
 * daemon's SweepContext memo and cache).  Returns the body's
 * topology_hash through @p hash_out when not null.
 */
std::string design_body(const std::string &body,
                        const ra::AcceleratorDesign &reference,
                        std::string *hash_out = nullptr);

/**
 * /v1/sweep body: strict JSON, total_points equal to @p total_points, a
 * frontier that is LUT-ascending with strictly falling cycles, and, when
 * @p reference is not null, a frontier equal to it point for point.
 */
std::string sweep_body(const std::string &body, std::size_t links,
                       std::uint64_t total_points,
                       const std::vector<rc::DesignPoint> *reference);

/** /v1/validate body: ok, the harness's link count, and @p hash. */
std::string validate_body(const std::string &body, std::size_t links,
                          const std::string &hash);

/**
 * 2-D (LUTs, cycles) frontier over @p points: LUT-ascending with strictly
 * falling cycles, no point strictly dominates a frontier point, and every
 * point is matched or dominated by a frontier point.
 */
std::string frontier_2d(const std::vector<rc::DesignPoint> &points,
                        const std::vector<rc::DesignPoint> &frontier);

/**
 * 3-D (cycles, LUTs, DSPs) frontier, checked on the points listed in
 * @p sample: no sampled point strictly dominates a frontier point, and
 * each sampled point off the frontier is strictly dominated by one.
 */
std::string frontier_3d_sample(const std::vector<rc::DesignPoint> &points,
                               const std::vector<rc::DesignPoint> &frontier,
                               const std::vector<std::size_t> &sample);

/** Engine gradients within @p tol of the host reference. */
std::string gradients(const ra::EngineResult &out,
                      const roboshape::dynamics::ForwardDynamicsGradients &ref,
                      double tol);

/** Gradients within a relative @p tol of finite differences of ABA. */
std::string finite_differences(const ra::EngineResult &out,
                               const roboshape::linalg::Matrix &fd_dq,
                               const roboshape::linalg::Matrix &fd_dqd,
                               double tol);

/** The engine's RNEA torque reproduces the forward-dynamics input. */
std::string torque(const ra::EngineResult &out,
                   const roboshape::linalg::Vector &tau_in, double tol);

/** Bit-for-bit equality of two gradient outputs. */
std::string bit_identical(const ra::EngineResult &a,
                          const ra::EngineResult &b);

} // namespace checks
} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
