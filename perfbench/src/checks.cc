#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "obs/json.h"
#include "service/json_value.h"

namespace perfbench {
namespace checks {

using roboshape::service::JsonValue;
using roboshape::sched::KernelKind;

ra::AcceleratorParams
resolved_params(std::size_t links, KernelKind kernel,
                const ra::AcceleratorParams &caps)
{
    const auto clamp = [links](std::size_t v) {
        return std::clamp<std::size_t>(v, 1, links);
    };
    return {clamp(caps.pes_fwd), clamp(caps.pes_bwd),
            kernel == KernelKind::kDynamicsGradient ? clamp(caps.block_size)
                                                    : 1};
}

std::uint64_t
knob_space_size(std::size_t links, KernelKind kernel)
{
    const std::uint64_t n = links;
    return n * n * (kernel == KernelKind::kDynamicsGradient ? n : 1);
}

std::string
hash_hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace {

/** Strict syntax check, then a parsed object; error text otherwise. */
std::optional<JsonValue>
parse_strict(const std::string &body, std::string &error)
{
    std::string why;
    if (!roboshape::obs::validate_json(body, &why)) {
        error = "not strict JSON: " + why;
        return std::nullopt;
    }
    std::optional<JsonValue> v = roboshape::service::parse_json(body, &why);
    if (!v || !v->is_object()) {
        error = "not a JSON object: " + why;
        return std::nullopt;
    }
    return v;
}

/** Numeric member at a dotted path ("cycles.pipelined"); NaN if absent. */
double
num(const JsonValue &root, const std::string &path)
{
    const JsonValue *v = &root;
    std::size_t start = 0;
    while (v && start <= path.size()) {
        const std::size_t dot = path.find('.', start);
        const std::string key = path.substr(
            start, dot == std::string::npos ? std::string::npos : dot - start);
        v = v->is_object() ? v->find(key) : nullptr;
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return v && v->is_number() ? v->as_number() : std::nan("");
}

std::string
str(const JsonValue &root, const std::string &key)
{
    const auto s = root.get_string(key);
    return s ? *s : std::string();
}

std::string
mismatch(const std::string &what, double got, double want)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s is %.17g, expected %.17g",
                  what.c_str(), got, want);
    return buf;
}

bool
dominates(const rc::DesignPoint &a, const rc::DesignPoint &b)
{
    const bool le = a.cycles <= b.cycles &&
                    a.resources.luts <= b.resources.luts &&
                    a.resources.dsps <= b.resources.dsps;
    const bool lt = a.cycles < b.cycles ||
                    a.resources.luts < b.resources.luts ||
                    a.resources.dsps < b.resources.dsps;
    return le && lt;
}

bool
same_objectives(const rc::DesignPoint &a, const rc::DesignPoint &b)
{
    return a.cycles == b.cycles && a.resources.luts == b.resources.luts &&
           a.resources.dsps == b.resources.dsps;
}

std::string
point_text(const rc::DesignPoint &p)
{
    return p.params.to_string() + " (" + std::to_string(p.cycles) +
           " cycles, " + std::to_string(p.resources.luts) + " LUTs)";
}

} // namespace

std::string
design_body(const std::string &body, const ra::AcceleratorDesign &reference,
            std::string *hash_out)
{
    std::string error;
    const std::optional<JsonValue> v = parse_strict(body, error);
    if (!v)
        return "design: " + error;
    if (str(*v, "schema") != "roboshape.design/1")
        return "design: wrong schema '" + str(*v, "schema") + "'";
    if (str(*v, "robot") != reference.model().name())
        return "design: robot '" + str(*v, "robot") + "', expected '" +
               reference.model().name() + "'";
    const ra::AcceleratorParams &p = reference.params();
    const std::pair<const char *, double> expected[] = {
        {"links", static_cast<double>(reference.model().num_links())},
        {"params.pes_fwd", static_cast<double>(p.pes_fwd)},
        {"params.pes_bwd", static_cast<double>(p.pes_bwd)},
        {"params.block_size", static_cast<double>(p.block_size)},
        {"cycles.no_pipelining",
         static_cast<double>(reference.cycles_no_pipelining())},
        {"cycles.pipelined", static_cast<double>(reference.cycles_pipelined())},
        {"cycles.overlapped",
         static_cast<double>(reference.cycles_overlapped())},
        {"resources.luts", static_cast<double>(reference.resources().luts)},
        {"resources.dsps", static_cast<double>(reference.resources().dsps)},
    };
    for (const auto &[path, want] : expected) {
        const double got = num(*v, path);
        if (!(got == want))
            return "design " + reference.model().name() + " " +
                   p.to_string() + ": " + mismatch(path, got, want);
    }
    if (hash_out)
        *hash_out = str(*v, "topology_hash");
    return {};
}

std::string
sweep_body(const std::string &body, std::size_t links,
           std::uint64_t total_points,
           const std::vector<rc::DesignPoint> *reference)
{
    std::string error;
    const std::optional<JsonValue> v = parse_strict(body, error);
    if (!v)
        return "sweep: " + error;
    if (str(*v, "schema") != "roboshape.sweep/1")
        return "sweep: wrong schema '" + str(*v, "schema") + "'";
    if (num(*v, "links") != static_cast<double>(links))
        return "sweep: " + mismatch("links", num(*v, "links"),
                                    static_cast<double>(links));
    if (num(*v, "total_points") != static_cast<double>(total_points))
        return "sweep: " + mismatch("total_points", num(*v, "total_points"),
                                    static_cast<double>(total_points));
    const JsonValue *pareto = v->find("pareto");
    if (!pareto || !pareto->is_array() || pareto->as_array().empty())
        return "sweep: missing or empty pareto array";
    const std::vector<JsonValue> &front = pareto->as_array();
    for (std::size_t i = 1; i < front.size(); ++i) {
        if (!(num(front[i], "luts") > num(front[i - 1], "luts")))
            return "sweep: frontier not LUT-ascending at entry " +
                   std::to_string(i);
        if (!(num(front[i], "cycles") < num(front[i - 1], "cycles")))
            return "sweep: frontier cycles not strictly falling at entry " +
                   std::to_string(i);
    }
    if (num(*v, "min_cycles") != num(front.back(), "cycles"))
        return "sweep: min_cycles differs from the frontier's last point";
    if (!reference)
        return {};
    if (front.size() != reference->size())
        return "sweep: frontier has " + std::to_string(front.size()) +
               " points, DesignSpace::sweep gives " +
               std::to_string(reference->size());
    for (std::size_t i = 0; i < front.size(); ++i) {
        const rc::DesignPoint &r = (*reference)[i];
        const std::pair<const char *, double> fields[] = {
            {"pes_fwd", static_cast<double>(r.params.pes_fwd)},
            {"pes_bwd", static_cast<double>(r.params.pes_bwd)},
            {"block_size", static_cast<double>(r.params.block_size)},
            {"cycles", static_cast<double>(r.cycles)},
            {"luts", static_cast<double>(r.resources.luts)},
            {"dsps", static_cast<double>(r.resources.dsps)},
        };
        for (const auto &[key, want] : fields)
            if (num(front[i], key) != want)
                return "sweep: frontier entry " + std::to_string(i) + " " +
                       mismatch(key, num(front[i], key), want);
    }
    return {};
}

std::string
validate_body(const std::string &body, std::size_t links,
              const std::string &hash)
{
    std::string error;
    const std::optional<JsonValue> v = parse_strict(body, error);
    if (!v)
        return "validate: " + error;
    const JsonValue *ok = v->find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool())
        return "validate: ok is not true";
    if (num(*v, "links") != static_cast<double>(links))
        return "validate: " + mismatch("links", num(*v, "links"),
                                       static_cast<double>(links));
    if (str(*v, "topology_hash") != hash)
        return "validate: topology_hash " + str(*v, "topology_hash") +
               " differs from /v1/design's " + hash;
    return {};
}

std::string
frontier_2d(const std::vector<rc::DesignPoint> &points,
            const std::vector<rc::DesignPoint> &frontier)
{
    if (frontier.empty())
        return "frontier is empty";
    for (std::size_t i = 1; i < frontier.size(); ++i)
        if (!(frontier[i].resources.luts > frontier[i - 1].resources.luts &&
              frontier[i].cycles < frontier[i - 1].cycles))
            return "frontier not LUT-ascending with falling cycles at " +
                   std::to_string(i);
    // Cycles fall along ascending LUTs, so for a point p the frontier
    // point that could be strictly dominated by p with the most slack is
    // the first one with luts >= p.luts, and the one that best covers p
    // is the last one with luts <= p.luts.
    const auto lut_less = [](const rc::DesignPoint &f, std::int64_t luts) {
        return f.resources.luts < luts;
    };
    for (const rc::DesignPoint &p : points) {
        const auto first = std::lower_bound(frontier.begin(), frontier.end(),
                                            p.resources.luts, lut_less);
        if (first != frontier.end() && p.cycles <= first->cycles &&
            (p.resources.luts < first->resources.luts ||
             p.cycles < first->cycles))
            return "point " + point_text(p) +
                   " strictly dominates frontier point " + point_text(*first);
        auto cover = std::upper_bound(
            frontier.begin(), frontier.end(), p.resources.luts,
            [](std::int64_t luts, const rc::DesignPoint &f) {
                return luts < f.resources.luts;
            });
        if (cover == frontier.begin() || std::prev(cover)->cycles > p.cycles)
            return "point " + point_text(p) +
                   " is neither on nor dominated by the frontier";
    }
    return {};
}

std::string
frontier_3d_sample(const std::vector<rc::DesignPoint> &points,
                   const std::vector<rc::DesignPoint> &frontier,
                   const std::vector<std::size_t> &sample)
{
    if (frontier.empty())
        return "3-D frontier is empty";
    for (const std::size_t i : sample) {
        const rc::DesignPoint &p = points.at(i);
        bool on = false, dominated = false;
        for (const rc::DesignPoint &f : frontier) {
            if (dominates(p, f))
                return "point " + point_text(p) +
                       " strictly dominates 3-D frontier point " +
                       point_text(f);
            on = on || same_objectives(p, f);
            dominated = dominated || dominates(f, p);
        }
        if (!on && !dominated)
            return "point " + point_text(p) +
                   " is neither on nor dominated by the 3-D frontier";
    }
    // A few frontier points against every point.
    const std::size_t stride = std::max<std::size_t>(1, frontier.size() / 8);
    for (std::size_t k = 0; k < frontier.size(); k += stride)
        for (const rc::DesignPoint &p : points)
            if (dominates(p, frontier[k]))
                return "point " + point_text(p) +
                       " strictly dominates 3-D frontier point " +
                       point_text(frontier[k]);
    return {};
}

namespace {

double
max_abs_diff(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return std::numeric_limits<double>::infinity();
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = std::fabs(a[i] - b[i]);
        if (!(d <= m))
            m = std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
    }
    return m;
}

double
max_abs(const std::vector<double> &a)
{
    double m = 0.0;
    for (const double x : a)
        m = std::max(m, std::fabs(x));
    return m;
}

} // namespace

std::string
gradients(const ra::EngineResult &out,
          const roboshape::dynamics::ForwardDynamicsGradients &ref,
          double tol)
{
    const double dq = max_abs_diff(out.dqdd_dq.data(), ref.dqdd_dq.data());
    const double dqd = max_abs_diff(out.dqdd_dqd.data(), ref.dqdd_dqd.data());
    if (dq > tol)
        return mismatch("max |dqdd_dq - host|", dq, tol);
    if (dqd > tol)
        return mismatch("max |dqdd_dqd - host|", dqd, tol);
    return {};
}

std::string
finite_differences(const ra::EngineResult &out,
                   const roboshape::linalg::Matrix &fd_dq,
                   const roboshape::linalg::Matrix &fd_dqd, double tol)
{
    const double dq = max_abs_diff(out.dqdd_dq.data(), fd_dq.data()) /
                      std::max(1.0, max_abs(fd_dq.data()));
    const double dqd = max_abs_diff(out.dqdd_dqd.data(), fd_dqd.data()) /
                       std::max(1.0, max_abs(fd_dqd.data()));
    if (dq > tol)
        return mismatch("relative |dqdd_dq - finite differences|", dq, tol);
    if (dqd > tol)
        return mismatch("relative |dqdd_dqd - finite differences|", dqd,
                        tol);
    return {};
}

std::string
torque(const ra::EngineResult &out, const roboshape::linalg::Vector &tau_in,
       double tol)
{
    const double d = max_abs_diff(out.tau.data(), tau_in.data()) /
                     std::max(1.0, max_abs(tau_in.data()));
    if (d > tol)
        return mismatch("relative |tau - input torque|", d, tol);
    return {};
}

std::string
bit_identical(const ra::EngineResult &a, const ra::EngineResult &b)
{
    const auto same = [](const std::vector<double> &x,
                         const std::vector<double> &y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
    };
    if (!same(a.tau.data(), b.tau.data()))
        return "batched tau differs from single-packet run()";
    if (!same(a.dqdd_dq.data(), b.dqdd_dq.data()))
        return "batched dqdd_dq differs from single-packet run()";
    if (!same(a.dqdd_dqd.data(), b.dqdd_dqd.data()))
        return "batched dqdd_dqd differs from single-packet run()";
    return {};
}

} // namespace checks
} // namespace perfbench
