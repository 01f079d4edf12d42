/**
 * @file
 * serve-hot and serve-cold: closed-loop keep-alive clients against a real
 * `roboshape serve` child over loopback.
 */

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "accel/design.h"
#include "checks.h"
#include "client.h"
#include "core/design_space.h"
#include "layers.h"
#include "models.h"
#include "obs/json.h"
#include "service/json_value.h"
#include "topology/urdf_parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace ra = roboshape::accel;
namespace rc = roboshape::core;
namespace rt = roboshape::topology;
using roboshape::sched::KernelKind;
using roboshape::service::JsonValue;

/** Daemon workers; clients never open more connections than this. */
constexpr std::size_t kDaemonThreads = 4;
/** Two serve-hot clients: with four, clients and daemon workers fill
 *  all 4 vCPUs and the latency median follows how they share them; with
 *  one, every request waits for idle vCPUs to wake (README, "End-to-end
 *  metrics"). */
constexpr std::size_t kHotClients = 2;
constexpr std::size_t kColdClients = 2;
/** serve-hot designs per robot, kernel, and spelling. */
constexpr std::size_t kHotDesigns = 3;
/** Daemons spawned in turn behind setup_s, which is their median. */
constexpr std::size_t kSetupRuns = 15;
/** One request in this many carries X-Roboshape-Trace: 1 (traced run). */
constexpr std::uint64_t kTraceEvery = 64;

enum class Ep : std::uint8_t
{
    kDesign,
    kSweep,
    kValidate,
};
const char *kEpNames[] = {"design", "sweep", "validate"};
const char *kEpTargets[] = {"/v1/design", "/v1/sweep", "/v1/validate"};

const KernelKind kKernels[] = {KernelKind::kDynamicsGradient,
                               KernelKind::kMassMatrix,
                               KernelKind::kForwardKinematics};
const char *kKernelTags[] = {"gradient", "crba", "kinematics"};

std::string
request_body(const std::string &robot, const std::string &urdf, int kernel,
             const ra::AcceleratorParams *caps)
{
    std::string b = "{";
    b += robot.empty() ? "\"urdf\": " + json_quote(urdf)
                       : "\"robot\": " + json_quote(robot);
    if (kernel >= 0)
        b += ", \"kernel\": \"" + std::string(kKernelTags[kernel]) + "\"";
    if (caps)
        b += ", \"max_pes_fwd\": " + std::to_string(caps->pes_fwd) +
             ", \"max_pes_bwd\": " + std::to_string(caps->pes_bwd) +
             ", \"max_block_size\": " + std::to_string(caps->block_size);
    return b + "}";
}

/** Outputs of one client thread over one timed phase. */
struct Lane
{
    std::vector<double> lat_us;
    std::vector<std::uint64_t> done_ns; ///< Completion time per request.
    std::vector<std::uint64_t> ids;
    std::vector<std::uint8_t> eps;
    std::vector<std::string> traces;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< Not a 200, or a failed check.
    std::uint64_t end_ns = 0;
    std::uint64_t excluded_ns = 0; ///< Trace fetches (not workload).
};

struct Phase
{
    std::vector<Lane> lanes;
    std::uint64_t start_ns = 0;
    double wall_s = 0.0;
    ProcSample proc0, proc1;
    double steal_share = 0.0; ///< See host_steal_share.

    std::size_t count() const
    {
        std::size_t n = 0;
        for (const Lane &l : lanes)
            n += l.lat_us.size();
        return n;
    }
    /** Requests per second, trace fetches excluded from the time. */
    double rate() const
    {
        double per_lane_s = 0.0;
        for (const Lane &l : lanes)
            per_lane_s += seconds_between(start_ns, l.end_ns) -
                          static_cast<double>(l.excluded_ns) * 1e-9;
        return per_lane_s > 0.0 ? static_cast<double>(count()) *
                                      static_cast<double>(lanes.size()) /
                                      per_lane_s
                                : 0.0;
    }
};

/**
 * Runs @p op(lane_index, client, lane) on one thread per client
 * until @p seconds pass; op performs and records one operation per call.
 */
Phase
closed_loop(std::vector<Client> &clients, double seconds, pid_t daemon,
            const std::function<void(std::size_t, Client &, Lane &)> &op)
{
    Phase ph;
    ph.lanes.resize(clients.size());
    for (Lane &l : ph.lanes)
        l.lat_us.reserve(1 << 20);
    std::pair<std::uint64_t, std::uint64_t> ticks;
    host_steal_share(ticks);
    ph.proc0 = proc_sample(daemon);
    ph.start_ns = now_ns();
    const std::uint64_t deadline =
        ph.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c)
        threads.emplace_back([&, c] {
            Lane &lane = ph.lanes[c];
            while (now_ns() < deadline)
                op(c, clients[c], lane);
            lane.end_ns = now_ns();
        });
    for (std::thread &t : threads)
        t.join();
    std::uint64_t end = ph.start_ns;
    for (const Lane &l : ph.lanes)
        end = std::max(end, l.end_ns);
    ph.wall_s = seconds_between(ph.start_ns, end);
    ph.proc1 = proc_sample(daemon);
    ph.steal_share = host_steal_share(ticks);
    return ph;
}

/** One timed request on @p client; records latency, id, and failures. */
bool
timed_request(Client &client, std::uint16_t port, const std::string &wire,
              Ep ep, Lane &lane, HttpReply &reply)
{
    ++lane.attempted;
    const std::uint64_t t0 = now_ns();
    const bool ok = client.roundtrip(wire, reply);
    const std::uint64_t t1 = now_ns();
    if (!ok || reply.status != 200) {
        ++lane.failed;
        if (lane.errors.size() < 4)
            lane.errors.push_back(std::string(kEpNames[int(ep)]) +
                                  (ok ? " answered " +
                                            std::to_string(reply.status)
                                      : " transport failure"));
        if (!ok)
            client.connect(port);
        return false;
    }
    lane.lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    lane.done_ns.push_back(t1);
    lane.ids.push_back(reply.request_id);
    lane.eps.push_back(static_cast<std::uint8_t>(ep));
    return true;
}

/** Fetches the Chrome trace of request @p id (traced runs). */
void
fetch_trace(Client &client, std::uint64_t id, Lane &lane)
{
    const std::uint64_t t0 = now_ns();
    HttpReply r;
    if (client.roundtrip(http_request("GET", "/v1/debug/trace/" +
                                                 std::to_string(id),
                                      ""),
                         r) &&
        r.status == 200)
        lane.traces.push_back(std::move(r.body));
    lane.excluded_ns += now_ns() - t0;
}

bool
healthz(std::uint16_t port)
{
    Client c;
    HttpReply r;
    return c.connect(port) &&
           c.roundtrip(http_request("GET", "/healthz", "", false, true), r) &&
           r.status == 200;
}

/** Counter values of a /v1/statz body. */
std::map<std::string, std::uint64_t>
statz_counters(Client &client)
{
    std::map<std::string, std::uint64_t> out;
    HttpReply r;
    if (!client.roundtrip(http_request("GET", "/v1/statz", ""), r) ||
        r.status != 200)
        return out;
    const auto v = roboshape::service::parse_json(r.body);
    const JsonValue *counters = v ? v->find("counters") : nullptr;
    if (!counters || !counters->is_array())
        return out;
    for (const JsonValue &c : counters->as_array()) {
        const auto name = c.get_string("name");
        const JsonValue *value = c.find("value");
        if (name && value && value->is_number())
            out[*name] = static_cast<std::uint64_t>(value->as_number());
    }
    return out;
}

/** handle_us per request id, from a JSON-lines access log. */
std::map<std::uint64_t, double>
access_log_handle_us(const std::string &path)
{
    std::map<std::uint64_t, double> out;
    const std::string text = read_file(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t id = line.find("\"id\":");
        const std::size_t h = line.find("\"handle_us\":");
        if (id == std::string::npos || h == std::string::npos)
            continue;
        out[std::strtoull(line.c_str() + id + 5, nullptr, 10)] =
            std::strtod(line.c_str() + h + 12, nullptr);
    }
    return out;
}

/** Sum of span durations (us) named @p name in a Chrome trace body. */
double
span_us(const JsonValue &trace, const std::string &name)
{
    double sum = 0.0;
    const JsonValue *events = trace.find("traceEvents");
    if (!events || !events->is_array())
        return 0.0;
    for (const JsonValue &e : events->as_array()) {
        const auto n = e.get_string("name");
        const JsonValue *dur = e.find("dur");
        if (n && *n == name && dur && dur->is_number())
            sum += dur->as_number();
    }
    return sum;
}

/**
 * Per-layer figures shared by both serve workloads, from a traced phase:
 * the access log, the sampled request traces, and /v1/statz deltas.  The
 * executor, process, and tracing figures go on the result line; the
 * daemon-only ones, which the in-process workloads cannot give, go to
 * the detail file.
 */
void
serve_layer_metrics(const Phase &traced, const Phase &plain,
                    const std::string &access_log,
                    const std::map<std::string, std::uint64_t> &s0,
                    const std::map<std::string, std::uint64_t> &s1,
                    bool with_validate, Result &r)
{
    const auto handle = access_log_handle_us(access_log);
    std::vector<double> overhead, all;
    std::vector<double> per_ep[3];
    for (const Lane &l : traced.lanes)
        for (std::size_t i = 0; i < l.ids.size(); ++i) {
            const auto it = handle.find(l.ids[i]);
            if (it == handle.end())
                continue;
            overhead.push_back(l.lat_us[i] - it->second);
            all.push_back(it->second);
            per_ep[l.eps[i]].push_back(it->second);
        }
    if (all.size() * 2 < traced.count())
        r.check_failed("access log joined only " + std::to_string(all.size()) +
                       " of " + std::to_string(traced.count()) + " requests");
    r.detail("net.overhead_us_p50", quantile(overhead, 0.5), "us",
             overhead.size());
    r.detail("net.overhead_us_p99", quantile(overhead, 0.99), "us",
             overhead.size());
    r.detail("service.handle_us_p50", quantile(all, 0.5), "us", all.size());
    r.detail("service.handle_us_p99", quantile(all, 0.99), "us", all.size());
    for (int e = 0; e < 3; ++e)
        if (!per_ep[e].empty() && (e != int(Ep::kValidate) || with_validate))
            r.detail(std::string("service.handle_us_p50.") + kEpNames[e],
                     quantile(per_ep[e], 0.5), "us", per_ep[e].size());

    std::vector<double> resolve, cache_entry;
    for (const Lane &l : traced.lanes)
        for (const std::string &body : l.traces) {
            const auto v = roboshape::service::parse_json(body);
            if (!v)
                continue;
            const double h = span_us(*v, "svc.handle");
            const double c = span_us(*v, "svc.cache_entry");
            if (h > 0.0 && c > 0.0) {
                resolve.push_back(h - c);
                cache_entry.push_back(c);
            }
        }
    r.detail("service.resolve_us_p50", quantile(resolve, 0.5), "us",
             resolve.size());
    r.detail("service.cache_entry_us_p50", quantile(cache_entry, 0.5), "us",
             cache_entry.size());

    const double hits = static_cast<double>(counter_delta(s0, s1, "svc.cache_hits"));
    const double misses =
        static_cast<double>(counter_delta(s0, s1, "svc.cache_misses"));
    r.detail("service.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
             static_cast<std::size_t>(hits + misses));
    r.detail("service.cache_evictions",
             static_cast<double>(counter_delta(s0, s1, "svc.cache_evictions")),
             "count");
    const double ops = static_cast<double>(std::max<std::size_t>(1, traced.count()));
    for (const char *name :
         {"exec.regions", "exec.tasks", "exec.steals", "exec.parks"})
        r.metric(name, static_cast<double>(counter_delta(s0, s1, name)) / ops,
                 "count/op");
    // The daemon's own scheduler counters per request (the result line's
    // sched.* come from the layer replay, see layers.h).
    for (const char *name : {"sched.list_runs", "sched.tasks_placed"})
        r.detail(std::string("daemon.") + name,
                 static_cast<double>(counter_delta(s0, s1, name)) / ops,
                 "count/op");
    const double placed =
        static_cast<double>(counter_delta(s0, s1, "sched.tasks_placed"));
    r.detail("daemon.sched.conflicts_per_placed_task",
             placed > 0 ? static_cast<double>(counter_delta(
                              s0, s1, "sched.placement_conflicts")) /
                              placed
                        : 0.0,
             "ratio");

    // Process accounting over the untraced phase.
    const double cpu = plain.proc1.cpu_s - plain.proc0.cpu_s;
    const double n = static_cast<double>(std::max<std::size_t>(1, plain.count()));
    r.metric("proc.cpu_per_wall", cpu / plain.wall_s, "ratio");
    r.metric("proc.cpu_us_per_op", cpu * 1e6 / n, "us");
    r.metric("proc.ctx_switches_per_op",
             static_cast<double>(plain.proc1.ctx_switches -
                                 plain.proc0.ctx_switches) /
                 n,
             "count/op");
    const double overhead_share =
        traced.rate() > 0.0 ? plain.rate() / traced.rate() - 1.0 : 0.0;
    r.metric("trace.overhead", overhead_share, "share");
    r.note("trace.overhead_base",
           "untraced " + std::to_string(plain.rate()) + " req/s vs traced " +
               std::to_string(traced.rate()) + " req/s");
    r.note("service.cache_hit_ratio_base",
           std::to_string(static_cast<std::uint64_t>(hits + misses)) +
               " cache lookups");
}

void
report_errors(const Phase &ph, Result &r)
{
    for (const Lane &l : ph.lanes) {
        r.attempted += l.attempted;
        r.failed += l.failed;
        for (const std::string &e : l.errors)
            r.check_failed(e);
    }
}

/** Warm-up operations are not counted, but their failures are. */
void
report_warmup_errors(const Phase &ph, Result &r)
{
    for (const Lane &l : ph.lanes)
        for (const std::string &e : l.errors)
            r.check_failed("warm-up: " + e);
}

/** Window length of the end-to-end figures (median over windows). */
constexpr double kWindowSeconds = 1.0;

void
report_e2e(const Phase &ph, const StealTimeline &steal, Result &r)
{
    std::vector<std::uint64_t> end;
    std::vector<double> lat;
    for (const Lane &l : ph.lanes) {
        end.insert(end.end(), l.done_ns.begin(), l.done_ns.end());
        lat.insert(lat.end(), l.lat_us.begin(), l.lat_us.end());
    }
    // Completed requests per wall second of each window.
    const Windows w =
        window_stats(ph.start_ns, kWindowSeconds, end, {}, {}, lat, true, steal);
    r.metric("throughput_per_s", quantile(w.rate, 0.5), "1/s", w.samples);
    r.metric("latency_p50_ms", quantile(w.p50, 0.5) * 1e-3, "ms", w.samples);
    // The p99 follows the host's steal time more than the program
    // (README, "End-to-end metrics"), so it stays off the result line.
    r.detail("request_p99_ms", quantile(w.p99, 0.5) * 1e-3, "ms", w.samples);
    std::string p50s;
    for (const double v : w.p50)
        p50s += (p50s.empty() ? "" : " ") + std::to_string(v);
    r.note("e2e.window_p50_us", p50s);
    r.note("host.steal_share", std::to_string(ph.steal_share));
    r.note("e2e.windows", std::to_string(w.rate.size()) + " windows of " +
                              std::to_string(kWindowSeconds) + " s");
}

std::vector<Client>
connect_clients(std::uint16_t port, std::size_t n, Result &r)
{
    std::vector<Client> clients(n);
    for (Client &c : clients)
        if (!c.connect(port))
            r.check_failed("cannot connect to the daemon");
    return clients;
}

std::string
daemon_binary(const Options &o)
{
    return o.bin_dir + "/roboshape";
}

// ------------------------------------------------------------ serve-hot --

struct HotRequest
{
    Ep ep = Ep::kDesign;
    std::size_t robot = 0;
    bool by_name = true;
    int kernel = -1;
    ra::AcceleratorParams caps;
    std::string body;
    std::string wire, wire_traced;
    HttpReply fill; ///< Reply recorded when the cache was filled.
    bool fill_ok = false; ///< The fill reply passed its checks.
};

struct HotInputs
{
    std::vector<rt::RobotId> ids;
    std::vector<std::string> urdfs;
    std::vector<rt::RobotModel> name_models, urdf_models;
    std::vector<HotRequest> reqs; ///< A round sends each once.
};

HotInputs
make_hot_inputs(std::uint64_t seed)
{
    HotInputs in;
    in.ids = library_robots();
    Rng rng(mix_seed(seed, 11));
    for (std::size_t r = 0; r < in.ids.size(); ++r) {
        in.urdfs.push_back(rt::robot_urdf(in.ids[r]));
        in.name_models.push_back(rt::build_robot(in.ids[r]));
        in.urdf_models.push_back(rt::parse_urdf(in.urdfs.back()));
        const std::size_t n = in.name_models.back().num_links();
        // Three designs per kernel with distinct resolved knobs, the same
        // for both spellings, so every seed sends the same make-up.
        std::vector<ra::AcceleratorParams> caps[3];
        for (int k = 0; k < 3; ++k) {
            std::vector<ra::AcceleratorParams> seen;
            while (caps[k].size() < kHotDesigns) {
                const ra::AcceleratorParams c{rng.uniform(1, n),
                                              rng.uniform(1, n),
                                              rng.uniform(1, n)};
                const auto p = checks::resolved_params(n, kKernels[k], c);
                if (std::find(seen.begin(), seen.end(), p) != seen.end())
                    continue;
                seen.push_back(p);
                caps[k].push_back(c);
            }
        }
        // /v1/validate checks a URDF body, so it always carries one.
        HotRequest v;
        v.ep = Ep::kValidate;
        v.robot = r;
        v.by_name = false;
        v.body = request_body("", in.urdfs[r], -1, nullptr);
        in.reqs.push_back(v);
        for (const bool by_name : {true, false}) {
            const std::string robot = by_name ? rt::robot_name(in.ids[r]) : "";
            const std::string &urdf = in.urdfs[r];
            for (int k = 0; k < 3; ++k) {
                HotRequest sw;
                sw.robot = r;
                sw.by_name = by_name;
                sw.ep = Ep::kSweep;
                sw.kernel = k;
                sw.body = request_body(robot, urdf, k, nullptr);
                in.reqs.push_back(sw);
                for (const ra::AcceleratorParams &c : caps[k]) {
                    HotRequest q = sw;
                    q.ep = Ep::kDesign;
                    q.caps = c;
                    q.body = request_body(robot, urdf, k, &q.caps);
                    in.reqs.push_back(q);
                }
            }
        }
    }
    for (HotRequest &q : in.reqs) {
        q.wire = http_request("POST", kEpTargets[int(q.ep)], q.body);
        q.wire_traced = http_request("POST", kEpTargets[int(q.ep)], q.body, true);
    }
    return in;
}

/** Checks every distinct fill reply against independent references and
 *  marks the ones that pass. */
void
check_hot_fill(HotInputs &in, Result &r)
{
    std::map<std::pair<std::size_t, bool>, std::string> design_hash;
    for (HotRequest &q : in.reqs) {
        if (q.fill.status != 200) {
            r.check_failed(std::string("fill: ") + kEpNames[int(q.ep)] +
                           " answered " + std::to_string(q.fill.status));
            continue;
        }
        const rt::RobotModel &model =
            q.by_name ? in.name_models[q.robot] : in.urdf_models[q.robot];
        const std::size_t n = model.num_links();
        std::string err;
        if (q.ep == Ep::kDesign) {
            const KernelKind kernel = kKernels[q.kernel];
            const ra::AcceleratorDesign reference(
                model, checks::resolved_params(n, kernel, q.caps),
                ra::default_timing(), kernel);
            std::string hash;
            err = checks::design_body(q.fill.body, reference, &hash);
            design_hash[{q.robot, q.by_name}] = hash;
        } else if (q.ep == Ep::kSweep) {
            const KernelKind kernel = kKernels[q.kernel];
            const std::vector<rc::DesignPoint> frontier =
                rc::DesignSpace::sweep(model, ra::default_timing(), kernel)
                    .pareto_frontier();
            err = checks::sweep_body(q.fill.body, n,
                                     checks::knob_space_size(n, kernel),
                                     &frontier);
        }
        if (!err.empty())
            r.check_failed(std::string(rt::robot_name(in.ids[q.robot])) +
                           (q.by_name ? " (by name) " : " (inline URDF) ") +
                           err);
        q.fill_ok = err.empty();
    }
    for (HotRequest &q : in.reqs)
        if (q.ep == Ep::kValidate && q.fill.status == 200) {
            const std::string err = checks::validate_body(
                q.fill.body, in.name_models[q.robot].num_links(),
                design_hash[{q.robot, q.by_name}]);
            if (!err.empty())
                r.check_failed(std::string(rt::robot_name(in.ids[q.robot])) + " " + err);
            q.fill_ok = err.empty();
        }
}

struct HotRun
{
    Phase phase;
    double peak_rss = 0.0;
    std::map<std::string, std::uint64_t> s0, s1;
};

/**
 * Spawns a daemon (with an access log when @p traced), connects the
 * clients, and fills its cache with every distinct request.  Returns the
 * seconds from spawn until the last fill reply, the set-up, or a negative
 * value on failure.  @p record_fill stores the fill replies in @p in;
 * otherwise they are compared with the stored ones.
 */
double
hot_start_and_fill(const Options &o, HotInputs &in, bool traced,
                   bool record_fill, Daemon &daemon,
                   std::vector<Client> &clients, Result &r)
{
    std::string err;
    const std::uint64_t t_spawn = now_ns();
    if (!daemon.start(daemon_binary(o), kDaemonThreads,
                      traced ? o.out_dir + "/serve-hot.access.jsonl" : "",
                      o.out_dir + "/serve-hot.daemon.stderr", err) ||
        !healthz(daemon.port())) {
        r.check_failed("serve-hot: " + (err.empty() ? "no /healthz" : err));
        return -1.0;
    }
    clients = connect_clients(daemon.port(), kHotClients, r);
    std::vector<std::thread> fill;
    std::atomic<std::size_t> fill_errors{0};
    for (std::size_t c = 0; c < clients.size(); ++c)
        fill.emplace_back([&, c] {
            for (std::size_t i = c; i < in.reqs.size(); i += clients.size()) {
                HttpReply reply;
                if (!clients[c].roundtrip(in.reqs[i].wire, reply))
                    ++fill_errors;
                if (record_fill)
                    in.reqs[i].fill = std::move(reply);
                else if (reply.body != in.reqs[i].fill.body)
                    ++fill_errors;
            }
        });
    for (std::thread &t : fill)
        t.join();
    const double setup_s = seconds_between(t_spawn, now_ns());
    if (fill_errors)
        r.check_failed("serve-hot: " + std::to_string(fill_errors.load()) +
                       " cache-fill requests failed or differed");
    return setup_s;
}

/**
 * Median set-up of @p runs daemons, each spawned, filled, and stopped in
 * turn; the first records the fill replies that every later check uses.
 */
double
hot_setup_s(const Options &o, HotInputs &in, std::size_t runs, Result &r)
{
    std::vector<double> times;
    for (std::size_t i = 0; i < runs; ++i) {
        Daemon daemon;
        std::vector<Client> clients;
        times.push_back(
            hot_start_and_fill(o, in, false, i == 0, daemon, clients, r));
        clients.clear();
        std::string err;
        if (!daemon.stop(err))
            r.check_failed("serve-hot: " + err);
    }
    return quantile(times, 0.5);
}

/** A filled daemon under the closed loop for @p seconds. */
HotRun
hot_daemon_phase(const Options &o, HotInputs &in, double seconds,
                 bool traced, Result &r)
{
    HotRun run;
    Daemon daemon;
    std::vector<Client> clients;
    if (hot_start_and_fill(o, in, traced, false, daemon, clients, r) < 0.0)
        return run;
    if (traced)
        run.s0 = statz_counters(clients[0]);

    std::vector<std::vector<std::size_t>> order(clients.size());
    std::vector<Rng> rngs;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        for (std::size_t i = 0; i < in.reqs.size(); ++i)
            order[c].push_back(i);
        rngs.emplace_back(mix_seed(o.seed, 100 + c));
    }
    std::vector<std::size_t> next(clients.size(), 0);
    std::vector<std::uint64_t> sent(clients.size(), 0);
    const std::uint16_t port = daemon.port();
    const auto op = [&](std::size_t c, Client &client, Lane &lane) {
        if (next[c] == 0) // reshuffle every round
            for (std::size_t i = order[c].size(); i > 1; --i)
                std::swap(order[c][i - 1], order[c][rngs[c].uniform(0, i - 1)]);
        const HotRequest &q = in.reqs[order[c][next[c]]];
        next[c] = (next[c] + 1) % order[c].size();
        const bool trace_this = traced && ++sent[c] % kTraceEvery == 0;
        HttpReply reply;
        if (!timed_request(client, port, trace_this ? q.wire_traced : q.wire,
                           q.ep, lane, reply))
            return;
        const bool same = reply.body == q.fill.body &&
                          (q.ep == Ep::kValidate || reply.cache == "hit");
        // A hit of a fill that failed its check repeats a wrong body.
        if (!same || !q.fill_ok)
            ++lane.failed;
        if (!same && lane.errors.size() < 4)
            lane.errors.push_back(std::string("serve-hot: ") +
                                  kEpNames[int(q.ep)] +
                                  " hit differs from its cold body");
        if (trace_this)
            fetch_trace(client, reply.request_id, lane);
    };
    report_warmup_errors(closed_loop(clients, 0.5, daemon.pid(), op), r);
    run.phase = closed_loop(clients, seconds, daemon.pid(), op);
    if (traced)
        run.s1 = statz_counters(clients[0]);
    run.peak_rss = peak_rss_mib(daemon.pid());
    clients.clear();
    std::string err;
    if (!daemon.stop(err))
        r.check_failed("serve-hot: " + err);
    report_errors(run.phase, r);
    return run;
}

// ----------------------------------------------------------- serve-cold --

struct ColdModel
{
    std::string urdf;
    std::size_t links = 0;
    int kernel = 0;
    std::vector<ra::AcceleratorParams> caps; ///< One or two designs.
};

/** Novel model @p index of the seed's stream (deterministic). */
ColdModel
cold_model(std::uint64_t seed, std::uint64_t index)
{
    ColdModel m;
    Rng rng(mix_seed(seed, 1000003 + index));
    const std::uint64_t block = index / 4;
    const std::string name = "m" + std::to_string(seed) + "_" +
                             std::to_string(index);
    if (index % 4 == 0) {
        const std::vector<rt::RobotId> ids = library_robots();
        const rt::RobotId id = ids[block % ids.size()];
        m.urdf = perturbed_library_urdf(id, name, rng);
        m.links = rt::build_robot(id).num_links();
    } else {
        const Family family = static_cast<Family>(index % 4 - 1);
        m.links = 8 + (block * 7 + seed) % 25; // every size in [8, 32]
        const std::vector<int> parents = family_parents(family, m.links, rng);
        m.urdf = tree_urdf(name, parents, rng);
    }
    m.kernel = static_cast<int>((index / 36) % 3);
    // One or two designs whose resolved knobs differ, so each is a miss.
    const std::size_t designs = 1 + block % 2;
    const KernelKind kernel = kKernels[m.kernel];
    while (m.caps.size() < designs) {
        const ra::AcceleratorParams caps{rng.uniform(1, m.links),
                                         rng.uniform(1, m.links),
                                         rng.uniform(1, m.links)};
        if (m.caps.empty() ||
            checks::resolved_params(m.links, kernel, caps) !=
                checks::resolved_params(m.links, kernel, m.caps[0]))
            m.caps.push_back(caps);
    }
    return m;
}

/** Cheap structural check of a cold reply (run in the client thread). */
std::string
cold_reply_check(const ColdModel &m, Ep ep, const HttpReply &reply,
                 const ra::AcceleratorParams *caps)
{
    if (reply.cache != "miss")
        return "serve-cold: a novel model was served from cache";
    if (ep == Ep::kSweep)
        return checks::sweep_body(
            reply.body, m.links,
            checks::knob_space_size(m.links, kKernels[m.kernel]), nullptr);
    if (!roboshape::obs::validate_json(reply.body))
        return "serve-cold: design body is not strict JSON";
    const auto v = roboshape::service::parse_json(reply.body);
    const JsonValue *links = v ? v->find("links") : nullptr;
    const JsonValue *params = v ? v->find("params") : nullptr;
    const ra::AcceleratorParams p =
        checks::resolved_params(m.links, kKernels[m.kernel], *caps);
    const JsonValue *fwd = params ? params->find("pes_fwd") : nullptr;
    if (!links || links->as_number() != static_cast<double>(m.links) ||
        !fwd || fwd->as_number() != static_cast<double>(p.pes_fwd))
        return "serve-cold: design body has wrong links or params";
    return {};
}

/** Sampled cold model with its replies, checked after the run. */
struct ColdSample
{
    ColdModel model;
    std::string sweep;
    std::vector<std::string> designs;
};

/** Models whose replies get the full independent check. */
constexpr std::uint64_t kColdSampleEvery = 16;
constexpr std::size_t kColdSampleMax = 48;

struct ColdRun
{
    Phase phase;
    double peak_rss = 0.0;
    std::map<std::string, std::uint64_t> s0, s1;
};

/** Spawns a daemon; returns the seconds from spawn until its first
 *  /healthz answer, the set-up, or a negative value on failure. */
double
cold_start(const Options &o, bool traced, Daemon &daemon, Result &r)
{
    std::string err;
    const std::uint64_t t_spawn = now_ns();
    if (!daemon.start(daemon_binary(o), kDaemonThreads,
                      traced ? o.out_dir + "/serve-cold.access.jsonl" : "",
                      o.out_dir + "/serve-cold.daemon.stderr", err) ||
        !healthz(daemon.port())) {
        r.check_failed("serve-cold: " + (err.empty() ? "no /healthz" : err));
        return -1.0;
    }
    return seconds_between(t_spawn, now_ns());
}

/** Median set-up of @p runs daemons, each spawned and stopped in turn. */
double
cold_setup_s(const Options &o, std::size_t runs, Result &r)
{
    std::vector<double> times;
    for (std::size_t i = 0; i < runs; ++i) {
        Daemon daemon;
        times.push_back(cold_start(o, false, daemon, r));
        std::string err;
        if (!daemon.stop(err))
            r.check_failed("serve-cold: " + err);
    }
    return quantile(times, 0.5);
}

ColdRun
cold_daemon_phase(const Options &o, double seconds, bool traced,
                  std::uint64_t first_index, std::vector<ColdSample> &samples,
                  Result &r)
{
    ColdRun run;
    Daemon daemon;
    if (cold_start(o, traced, daemon, r) < 0.0)
        return run;
    std::vector<Client> clients =
        connect_clients(daemon.port(), kColdClients, r);
    const std::uint16_t port = daemon.port();
    std::atomic<std::uint64_t> next{first_index};
    std::mutex sample_mu;
    std::vector<std::uint64_t> sent(clients.size(), 0);
    bool sampling = false;
    const auto op = [&](std::size_t c, Client &client, Lane &lane) {
        const std::uint64_t index = next.fetch_add(1);
        const ColdModel m = cold_model(o.seed, index);
        const bool keep = sampling &&
                          mix_seed(o.seed, index) % kColdSampleEvery == 0;
        ColdSample sample;
        bool live_ok = true;
        for (std::size_t k = 0; k <= m.caps.size(); ++k) {
            const Ep ep = k == 0 ? Ep::kSweep : Ep::kDesign;
            const ra::AcceleratorParams *caps = k ? &m.caps[k - 1] : nullptr;
            const std::string body = request_body("", m.urdf, m.kernel, caps);
            const bool trace_this = traced && ++sent[c] % kTraceEvery == 0;
            HttpReply reply;
            if (!timed_request(client, port,
                               http_request("POST", kEpTargets[int(ep)], body,
                                            trace_this),
                               ep, lane, reply))
                return;
            const std::string e = cold_reply_check(m, ep, reply, caps);
            if (!e.empty()) {
                ++lane.failed;
                live_ok = false;
                if (lane.errors.size() < 4)
                    lane.errors.push_back(e);
            }
            if (trace_this)
                fetch_trace(client, reply.request_id, lane);
            if (keep)
                (k == 0 ? sample.sweep : sample.designs.emplace_back()) =
                    std::move(reply.body);
        }
        // A model that already failed a live check is counted; the full
        // check after the run takes only the others.
        if (keep && live_ok) {
            std::lock_guard<std::mutex> lock(sample_mu);
            if (samples.size() < kColdSampleMax) {
                sample.model = m;
                samples.push_back(std::move(sample));
            }
        }
    };
    report_warmup_errors(closed_loop(clients, 0.5, daemon.pid(), op), r);
    if (traced)
        run.s0 = statz_counters(clients[0]);
    sampling = true;
    run.phase = closed_loop(clients, seconds, daemon.pid(), op);
    sampling = false;
    if (traced)
        run.s1 = statz_counters(clients[0]);
    run.peak_rss = peak_rss_mib(daemon.pid());
    clients.clear();
    std::string err;
    if (!daemon.stop(err))
        r.check_failed("serve-cold: " + err);
    report_errors(run.phase, r);
    return run;
}

void
check_cold_samples(const std::vector<ColdSample> &samples, Result &r)
{
    for (const ColdSample &s : samples) {
        const rt::RobotModel model = rt::parse_urdf(s.model.urdf);
        const KernelKind kernel = kKernels[s.model.kernel];
        const std::vector<rc::DesignPoint> frontier =
            rc::DesignSpace::sweep(model, ra::default_timing(), kernel)
                .pareto_frontier();
        std::string err = checks::sweep_body(
            s.sweep, s.model.links,
            checks::knob_space_size(s.model.links, kernel), &frontier);
        for (std::size_t d = 0; err.empty() && d < s.designs.size(); ++d) {
            const ra::AcceleratorDesign reference(
                model,
                checks::resolved_params(s.model.links, kernel, s.model.caps[d]),
                ra::default_timing(), kernel);
            err = checks::design_body(s.designs[d], reference);
        }
        if (!err.empty()) {
            r.check_failed("serve-cold " + model.name() + ": " + err);
            ++r.failed; // the first wrong reply of the model
        }
    }
    r.note("serve-cold.sampled_models", std::to_string(samples.size()));
}

} // namespace

void
run_serve_hot(const Options &o, Result &r)
{
    HotInputs in = make_hot_inputs(o.seed);
    const StealTimeline steal;
    r.note("host.spin_iterations_per_s",
           std::to_string(spin_all_cores(kWarmupSpinSeconds)));
    const double seconds = o.trace ? o.seconds / 2 : o.seconds;
    // setup_s: median of cold daemons, each spawned and filled in turn; the
    // traced run needs only the first, which records the fill replies.
    const double setup_s = hot_setup_s(o, in, o.trace ? 1 : kSetupRuns, r);
    check_hot_fill(in, r);
    r.note("serve-hot.distinct_requests", std::to_string(in.reqs.size()));
    HotRun plain = hot_daemon_phase(o, in, seconds, false, r);
    if (!o.trace) {
        r.metric("setup_s", setup_s, "s");
        r.note("setup_s.runs", std::to_string(kSetupRuns) + " daemons");
        r.metric("peak_rss_mib", plain.peak_rss, "MiB");
        report_e2e(plain.phase, steal, r);
        return;
    }
    spin_all_cores(0.5);
    HotRun traced = hot_daemon_phase(o, in, seconds, true, r);
    serve_layer_metrics(traced.phase, plain.phase,
                        o.out_dir + "/serve-hot.access.jsonl", traced.s0,
                        traced.s1, true, r);

    replay_layers(in.urdfs, o.seed, r);
    std::vector<double> build;
    for (const rt::RobotId id : in.ids)
        build.push_back(time_calls_us(16, [&] { (void)rt::build_robot(id); }));
    r.detail("topology.build_robot_us", quantile(build, 0.5), "us",
             build.size());
}

void
run_serve_cold(const Options &o, Result &r)
{
    const StealTimeline steal;
    r.note("host.spin_iterations_per_s",
           std::to_string(spin_all_cores(kWarmupSpinSeconds)));
    const double seconds = o.trace ? o.seconds / 2 : o.seconds;
    // setup_s: median of cold daemons, each spawned and stopped in turn.
    const double setup_s = o.trace ? 0.0 : cold_setup_s(o, kSetupRuns, r);
    std::vector<ColdSample> samples;
    ColdRun plain = cold_daemon_phase(o, seconds, false, 0, samples, r);
    if (!o.trace) {
        check_cold_samples(samples, r);
        r.metric("setup_s", setup_s, "s");
        r.note("setup_s.runs", std::to_string(kSetupRuns) + " daemons");
        r.metric("peak_rss_mib", plain.peak_rss, "MiB");
        report_e2e(plain.phase, steal, r);
        return;
    }
    spin_all_cores(0.5);
    ColdRun traced =
        cold_daemon_phase(o, seconds, true, 1u << 30, samples, r);
    check_cold_samples(samples, r);
    serve_layer_metrics(traced.phase, plain.phase,
                        o.out_dir + "/serve-cold.access.jsonl", traced.s0,
                        traced.s1, false, r);

    // Layer replay over 24 of the run's models.
    std::vector<std::string> urdfs;
    for (std::uint64_t i = 0; i < 24; ++i)
        urdfs.push_back(cold_model(o.seed, i).urdf);
    replay_layers(urdfs, o.seed, r);
}

} // namespace perfbench
