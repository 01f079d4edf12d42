/**
 * @file
 * Shared plumbing of the perfbench harness: options, seeded randomness,
 * clocks, order statistics, process accounting, registry deltas, and the
 * one-line JSON result every run ends with.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the `roboshape` binary (serve workloads). */
    std::string bin_dir;
    /** Directory for per-run detail files and traced-run outputs. */
    std::string out_dir;
};

/** splitmix64 stream: the only randomness source of the harness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [lo, hi]. */
    std::size_t uniform(std::size_t lo, std::size_t hi)
    {
        return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
    }

    /** Uniform real in [0, 1). */
    double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** Stable 64-bit mix of a seed and a stream tag (independent streams). */
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/** Steady-clock nanoseconds. */
std::uint64_t now_ns();

inline double
seconds_between(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Nearest-rank quantile of @p values (copied and sorted). 0 if empty. */
double quantile(std::vector<double> values, double q);

/** Median per-call microseconds of @p fn over @p reps calls. */
double time_calls_us(std::size_t reps, const std::function<void()> &fn);

/**
 * The host's steal share over time.  A shared host steals CPU time in
 * bursts of a fraction of a second, and a burst stalls any operation
 * that waits on the stolen vCPU.  While the object lives, a thread reads
 * the host-wide steal and total ticks of /proc/stat every 100 ms.
 */
class StealTimeline
{
  public:
    StealTimeline();
    ~StealTimeline();
    StealTimeline(const StealTimeline &) = delete;
    StealTimeline &operator=(const StealTimeline &) = delete;

    /** Share of host CPU time stolen between two now_ns() readings, from
     *  the samples that bracket them. */
    double share(std::uint64_t t0_ns, std::uint64_t t1_ns) const;

  private:
    struct Sample
    {
        std::uint64_t t_ns, steal, total;
    };
    mutable std::mutex mu_;
    std::vector<Sample> samples_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * Indices of the quieter half of a run's windows: those whose steal
 * share is at most the median one.  End-to-end figures are medians over
 * these, so a run's steal bursts move fewer of the windows it reports.
 */
std::vector<std::size_t> quieter_half(const std::vector<double> &steal);

/**
 * Operations of a timed phase bucketed into fixed windows by completion
 * time; each end-to-end figure is the median over the full windows, so a
 * burst of interference from outside the benchmark moves one window, not
 * the whole run.
 */
struct Windows
{
    std::vector<double> rate; ///< Work per second of busy (or wall) time.
    std::vector<double> p50, p99;
    std::vector<double> steal; ///< Host steal share per window.
    std::size_t samples = 0;
};

/**
 * Buckets operation i (completed at @p end_ns[i], taking @p busy_s[i],
 * doing @p work[i] units, with latency @p latency[i]; latency < 0 means
 * "not a latency sample") into @p window_s windows from @p start_ns,
 * and keeps the quieter half of the full windows by @p steal.
 * With @p wall_rate the rate is work per window length (completions per
 * wall second) and @p busy_s may be empty, else work per busy second
 * inside the window.  An empty @p work counts one unit per operation.
 */
Windows window_stats(std::uint64_t start_ns, double window_s,
                     const std::vector<std::uint64_t> &end_ns,
                     const std::vector<double> &busy_s,
                     const std::vector<double> &work,
                     const std::vector<double> &latency, bool wall_rate,
                     const StealTimeline &steal);

/**
 * Keeps every core busy for @p seconds.  An idle host hands a new burst
 * of work about one core for roughly the first second (see README), so
 * every timed phase starts behind this.  Returns the spin loop's
 * iterations per second over all cores in its last half: a host-speed
 * reading for the detail file.
 */
double spin_all_cores(double seconds);

/** CPU seconds and context switches of a process (0 = this process). */
struct ProcSample
{
    double cpu_s = 0.0;
    std::uint64_t ctx_switches = 0;
};
ProcSample proc_sample(pid_t pid = 0);

/**
 * Share of the host's CPU time that the hypervisor stole since @p since
 * (the value of a previous call, 0 for none), from /proc/stat; the
 * new cumulative reading goes to @p since.  A shared host steals time in
 * bursts, and a run with a high share is a disturbed run.
 */
double host_steal_share(std::pair<std::uint64_t, std::uint64_t> &since);

/** Peak resident set (VmHWM) of a process in MiB; 0 = this process. */
double peak_rss_mib(pid_t pid = 0);

/** Snapshot of every counter of the in-process obs registry. */
std::map<std::string, std::uint64_t> registry_counters();

/** b[name] - a[name] (0 when absent). */
std::uint64_t counter_delta(const std::map<std::string, std::uint64_t> &a,
                            const std::map<std::string, std::uint64_t> &b,
                            const std::string &name);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind a timing (0 = not a sampled timing). */
    std::size_t samples = 0;
    /** Printed on the result line (a metric of BENCHMARK.json), not only
     *  written to the detail file. */
    bool headline = true;
};

/**
 * Collects metrics and check failures of one run, then prints the final
 * result line and writes the detail file.
 */
class Result
{
  public:
    /** A metric of BENCHMARK.json: on the result line and in the detail
     *  file. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples = 0);
    /** A figure of one workload only: in the detail file. */
    void detail(const std::string &name, double value,
                const std::string &unit, std::size_t samples = 0);
    /** Records a failed correctness check (the run becomes incorrect). */
    void check_failed(const std::string &what);
    /** Adds a free-form key/value line to the detail file. */
    void note(const std::string &key, const std::string &value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool correct() const { return errors_.empty(); }

    /**
     * Prints a human summary to stderr, writes @p detail_path (when not
     * empty), and prints the result JSON as the last stdout line.
     */
    void finish(const std::string &detail_path) const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> errors_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

/** Minimal JSON string escaping for request bodies and output files. */
std::string json_quote(const std::string &s);

/** Reads a whole file; empty string when unreadable. */
std::string read_file(const std::string &path);

/** mkdir -p. */
bool make_dirs(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
