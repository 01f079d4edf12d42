#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <dirent.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/registry.h"

namespace perfbench {

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t tag)
{
    Rng r(seed * 0x100000001b3ull ^ (tag + 0x632be59bd9b4e019ull));
    r.next();
    return r.next();
}

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, values.size() - 1);
    return values[idx];
}

double
time_calls_us(std::size_t reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    t.reserve(reps);
    for (std::size_t i = 0; i < reps; ++i) {
        const std::uint64_t t0 = now_ns();
        fn();
        t.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return quantile(t, 0.5);
}

Windows
window_stats(std::uint64_t start_ns, double window_s,
             const std::vector<std::uint64_t> &end_ns,
             const std::vector<double> &busy_s,
             const std::vector<double> &work,
             const std::vector<double> &latency, bool wall_rate,
             const StealTimeline &steal)
{
    Windows out;
    std::uint64_t last = start_ns;
    for (const std::uint64_t t : end_ns)
        last = std::max(last, t);
    const auto full = static_cast<std::size_t>(
        seconds_between(start_ns, last) / window_s);
    std::vector<double> w_work(full, 0.0), w_busy(full, 0.0);
    std::vector<std::vector<double>> w_lat(full);
    for (std::size_t i = 0; i < end_ns.size(); ++i) {
        const auto w = static_cast<std::size_t>(
            seconds_between(start_ns, end_ns[i]) / window_s);
        if (w >= full)
            continue;
        w_work[w] += work.empty() ? 1.0 : work[i];
        if (!busy_s.empty())
            w_busy[w] += busy_s[i];
        if (latency[i] >= 0.0) {
            w_lat[w].push_back(latency[i]);
            ++out.samples;
        }
    }
    std::vector<double> shares(full);
    const auto window_ns = static_cast<std::uint64_t>(window_s * 1e9);
    for (std::size_t w = 0; w < full; ++w)
        shares[w] = steal.share(start_ns + w * window_ns,
                                start_ns + (w + 1) * window_ns);
    for (const std::size_t w : quieter_half(shares)) {
        const double t = wall_rate ? window_s : w_busy[w];
        out.rate.push_back(t > 0 ? w_work[w] / t : 0.0);
        out.p50.push_back(quantile(w_lat[w], 0.5));
        out.p99.push_back(quantile(w_lat[w], 0.99));
        out.steal.push_back(shares[w]);
    }
    return out;
}

namespace {

/** Host-wide {steal, total} ticks from the "cpu" line of /proc/stat. */
std::pair<std::uint64_t, std::uint64_t>
steal_ticks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::istringstream in(read_file("/proc/stat"));
    std::string label;
    std::uint64_t v = 0, total = 0, steal = 0;
    in >> label;
    for (int i = 0; i < 8 && in >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

} // namespace

StealTimeline::StealTimeline()
{
    const auto sample = [this] {
        const auto [steal, total] = steal_ticks();
        std::lock_guard<std::mutex> lock(mu_);
        samples_.push_back({now_ns(), steal, total});
    };
    sample();
    thread_ = std::thread([this, sample] {
        while (!stop_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            sample();
        }
    });
}

StealTimeline::~StealTimeline()
{
    stop_.store(true);
    thread_.join();
}

double
StealTimeline::share(std::uint64_t t0_ns, std::uint64_t t1_ns) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t a = 0, b = samples_.size() - 1;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        if (samples_[i].t_ns <= t0_ns)
            a = i;
        if (samples_[samples_.size() - 1 - i].t_ns >= t1_ns)
            b = samples_.size() - 1 - i;
    }
    const std::uint64_t total = samples_[b].total - samples_[a].total;
    return b > a && total > 0
               ? static_cast<double>(samples_[b].steal - samples_[a].steal) /
                     static_cast<double>(total)
               : 0.0;
}

std::vector<std::size_t>
quieter_half(const std::vector<double> &steal)
{
    const double median = quantile(steal, 0.5);
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < steal.size(); ++i)
        if (steal[i] <= median)
            keep.push_back(i);
    return keep;
}

double
spin_all_cores(double seconds)
{
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t start = now_ns();
    const std::uint64_t half = start + static_cast<std::uint64_t>(seconds * 5e8);
    const std::uint64_t until = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::atomic<std::uint64_t> iterations{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t)
        threads.emplace_back([&iterations, half, until] {
            std::uint64_t x = 1, counted = 0;
            for (std::uint64_t now; (now = now_ns()) < until;) {
                for (int i = 0; i < 4096; ++i)
                    x = x * 6364136223846793005ull + 1442695040888963407ull;
                if (now >= half)
                    counted += 4096;
            }
            iterations.fetch_add(counted + (x & 1), std::memory_order_relaxed);
        });
    for (std::thread &t : threads)
        t.join();
    return static_cast<double>(iterations.load()) / (seconds / 2);
}

namespace {

std::string
proc_path(pid_t pid, const std::string &leaf)
{
    return pid == 0 ? "/proc/self/" + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/** Value of a "Key:   123 kB" line of a /proc status file. */
std::uint64_t
status_field(const std::string &text, const std::string &key)
{
    const std::size_t at = text.find(key + ":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
}

} // namespace

ProcSample
proc_sample(pid_t pid)
{
    ProcSample s;
    if (pid == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec) *
                      1e-6;
        s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
        return s;
    }
    // utime + stime (fields 14, 15) of the whole thread group.
    const std::string stat = read_file(proc_path(pid, "stat"));
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos) {
        std::istringstream in(stat.substr(close + 2));
        std::string field;
        unsigned long long utime = 0, stime = 0;
        for (int i = 3; i <= 15 && in >> field; ++i) {
            if (i == 14)
                utime = std::strtoull(field.c_str(), nullptr, 10);
            if (i == 15)
                stime = std::strtoull(field.c_str(), nullptr, 10);
        }
        s.cpu_s = static_cast<double>(utime + stime) /
                  static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    // Context switches are per thread: sum every task's status.
    const std::string task_dir = proc_path(pid, "task");
    if (DIR *dir = opendir(task_dir.c_str())) {
        while (const dirent *e = readdir(dir)) {
            if (e->d_name[0] == '.')
                continue;
            const std::string st =
                read_file(task_dir + "/" + e->d_name + "/status");
            s.ctx_switches += status_field(st, "voluntary_ctxt_switches") +
                              status_field(st, "nonvoluntary_ctxt_switches");
        }
        closedir(dir);
    }
    return s;
}

double
host_steal_share(std::pair<std::uint64_t, std::uint64_t> &since)
{
    const auto [steal, total] = steal_ticks();
    const std::uint64_t d_total = total - since.second;
    const double share =
        since.second && d_total
            ? static_cast<double>(steal - since.first) /
                  static_cast<double>(d_total)
            : 0.0;
    since = {steal, total};
    return share;
}

double
peak_rss_mib(pid_t pid)
{
    const std::string st = read_file(proc_path(pid, "status"));
    return static_cast<double>(status_field(st, "VmHWM")) / 1024.0;
}

std::map<std::string, std::uint64_t>
registry_counters()
{
    std::map<std::string, std::uint64_t> out;
    for (const roboshape::obs::CounterSample &c :
         roboshape::obs::registry().counters())
        out[c.name] = c.value;
    return out;
}

std::uint64_t
counter_delta(const std::map<std::string, std::uint64_t> &a,
              const std::map<std::string, std::uint64_t> &b,
              const std::string &name)
{
    const auto ia = a.find(name);
    const auto ib = b.find(name);
    const std::uint64_t va = ia == a.end() ? 0 : ia->second;
    const std::uint64_t vb = ib == b.end() ? 0 : ib->second;
    return vb >= va ? vb - va : 0;
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples)
{
    metrics_.push_back({name, value, unit, samples, true});
}

void
Result::detail(const std::string &name, double value,
               const std::string &unit, std::size_t samples)
{
    metrics_.push_back({name, value, unit, samples, false});
}

void
Result::check_failed(const std::string &what)
{
    if (errors_.size() < 64)
        errors_.push_back(what);
    else if (errors_.size() == 64)
        errors_.push_back("... further check failures suppressed");
}

void
Result::note(const std::string &key, const std::string &value)
{
    notes_.emplace_back(key, value);
}

std::string
json_quote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
    return out;
}

namespace {

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Result::finish(const std::string &detail_path) const
{
    for (const Metric &m : metrics_)
        std::fprintf(stderr, "  %-36s %14.6g %-6s%s\n", m.name.c_str(),
                     m.value, m.unit.c_str(),
                     m.samples ? (" (n=" + std::to_string(m.samples) + ")")
                                     .c_str()
                               : "");
    for (const std::string &e : errors_)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

    std::string metrics = "{";
    for (const Metric &m : metrics_) {
        if (!m.headline)
            continue;
        metrics += (metrics.size() > 1 ? ", " : "") + json_quote(m.name) +
                   ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + json_quote(m.unit) + "}";
    }
    metrics += "}";

    if (!detail_path.empty()) {
        std::ofstream out(detail_path);
        out << "{\n  \"correct\": " << (correct() ? "true" : "false")
            << ",\n  \"attempted\": " << attempted
            << ",\n  \"failed\": " << failed << ",\n  \"metrics\": [";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            out << (i ? "," : "") << "\n    {\"name\": " << json_quote(m.name)
                << ", \"value\": " << number(m.value)
                << ", \"unit\": " << json_quote(m.unit)
                << ", \"samples\": " << m.samples
                << ", \"headline\": " << (m.headline ? "true" : "false") << "}";
        }
        out << "\n  ],\n  \"notes\": {";
        for (std::size_t i = 0; i < notes_.size(); ++i)
            out << (i ? "," : "") << "\n    " << json_quote(notes_[i].first)
                << ": " << json_quote(notes_[i].second);
        out << "\n  },\n  \"check_failures\": [";
        for (std::size_t i = 0; i < errors_.size(); ++i)
            out << (i ? ", " : "") << json_quote(errors_[i]);
        out << "]\n}\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
}

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
make_dirs(const std::string &path)
{
    for (std::size_t i = 1; i <= path.size(); ++i)
        if (i == path.size() || path[i] == '/') {
            const std::string prefix = path.substr(0, i);
            if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
                return false;
        }
    return true;
}

} // namespace perfbench
