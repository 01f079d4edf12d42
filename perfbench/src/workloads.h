/**
 * @file
 * The four perfbench workloads.  Each fills @p result with its metrics
 * (end-to-end ones, or per-layer ones when options.trace is set), its
 * operation counts, and any failed check.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

void run_serve_hot(const Options &options, Result &result);
void run_serve_cold(const Options &options, Result &result);
void run_fd_batch(const Options &options, Result &result);
void run_sweep_scale(const Options &options, Result &result);

/** Seconds every core is kept busy before a workload's first timing. */
inline constexpr double kWarmupSpinSeconds = 1.5;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
