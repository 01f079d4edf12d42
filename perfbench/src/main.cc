/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of RoboShape.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --bin-dir DIR --out-dir DIR
 *
 * Prints one JSON result object as the last line of stdout (see
 * README.md) and writes a detail file with sample counts to
 * OUT/<workload>-seed<N>-trace<T>.json.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload serve-hot|serve-cold|fd-batch|"
                 "sweep-scale --seed N --seconds S --trace 0|1 "
                 "--bin-dir DIR --out-dir DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = value == "1";
        else if (key == "--bin-dir")
            o.bin_dir = value;
        else if (key == "--out-dir")
            o.out_dir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || o.workload.empty() || !(o.seconds > 0) ||
        o.out_dir.empty() || !perfbench::make_dirs(o.out_dir))
        return usage();

    perfbench::Result result;
    try {
        if (o.workload == "serve-hot")
            perfbench::run_serve_hot(o, result);
        else if (o.workload == "serve-cold")
            perfbench::run_serve_cold(o, result);
        else if (o.workload == "fd-batch")
            perfbench::run_fd_batch(o, result);
        else if (o.workload == "sweep-scale")
            perfbench::run_sweep_scale(o, result);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    result.finish(o.out_dir + "/" + o.workload + "-seed" +
                  std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") +
                  ".json");
    return result.correct() ? 0 : 1;
}
