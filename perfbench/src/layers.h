/**
 * @file
 * Layer replays shared by the traced runs of every workload: the harness
 * times its own calls into each layer's public functions over the
 * workload's models, outside any timed phase, so every workload reports
 * the same per-layer names (README, "Per-layer metrics").
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/**
 * Replays @p urdfs (the URDF text of the workload's models) through the
 * net, service, topology, sched, core, and accel layers and reports one
 * median per layer call: request-head and JSON parse of an inline-URDF
 * /v1/sweep request, URDF parse, model hash, TopologyInfo, serial list
 * and block scheduling on a fresh SweepContext (with the sched counters
 * per model), parallel precompute and its speedup, SweepContext::design,
 * DesignSpace::sweep with both Pareto passes, and AcceleratorDesign,
 * SimEngine compile, and single-packet SimEngine::run on the gradient
 * kernel.  Inputs of run() come from @p seed.
 */
void replay_layers(const std::vector<std::string> &urdfs, std::uint64_t seed,
                   Result &r);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
