#include "models.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace rt = roboshape::topology;

std::vector<rt::RobotId>
library_robots()
{
    std::vector<rt::RobotId> ids = rt::all_robots();
    ids.insert(ids.end(), rt::extended_robots().begin(),
               rt::extended_robots().end());
    return ids;
}

const char *
family_name(Family f)
{
    switch (f) {
      case Family::kChain: return "chain";
      case Family::kStar: return "star";
      case Family::kTree: return "tree";
    }
    return "?";
}

std::vector<int>
family_parents(Family family, std::size_t links, Rng &rng, std::size_t limbs)
{
    std::vector<int> parents(links, -1);
    switch (family) {
      case Family::kChain:
        for (std::size_t i = 1; i < links; ++i)
            parents[i] = static_cast<int>(i) - 1;
        break;
      case Family::kStar: {
        // Limbs off the base, lengths as even as the count allows.
        if (limbs == 0)
            limbs = rng.uniform(2, 6);
        std::size_t next = 0;
        for (std::size_t l = 0; l < limbs; ++l) {
            const std::size_t len =
                links / limbs + (l < links % limbs ? 1 : 0);
            for (std::size_t k = 0; k < len; ++k, ++next)
                parents[next] = k == 0 ? -1 : static_cast<int>(next) - 1;
        }
        break;
      }
      case Family::kTree:
        // Random recursive tree biased towards recent links, so depth
        // stays between a star's and a chain's.
        for (std::size_t i = 1; i < links; ++i) {
            const std::size_t back = rng.uniform(1, std::min<std::size_t>(i, 4));
            parents[i] = static_cast<int>(i - back);
        }
        break;
    }
    return parents;
}

namespace {

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

std::string
tree_urdf(const std::string &name, const std::vector<int> &parents, Rng &rng)
{
    static const char *kAxes[] = {"1 0 0", "0 1 0", "0 0 1"};
    std::string out;
    out.reserve(parents.size() * 640);
    out += "<?xml version=\"1.0\"?>\n<robot name=\"" + name + "\">\n";
    out += "  <link name=\"base\"/>\n";
    for (std::size_t i = 0; i < parents.size(); ++i) {
        const std::string link = "l" + std::to_string(i);
        const double mass = 0.5 + 2.5 * rng.real();
        const double ixx = 0.01 + 0.01 * rng.real();
        const double iyy = 0.01 + 0.01 * rng.real();
        const double izz = 0.01 + 0.01 * rng.real();
        out += "  <link name=\"" + link + "\">\n    <inertial>\n"
               "      <origin xyz=\"0 0 " + fmt(0.02 + 0.1 * rng.real()) +
               "\" rpy=\"0 0 0\"/>\n      <mass value=\"" + fmt(mass) +
               "\"/>\n      <inertia ixx=\"" + fmt(ixx) +
               "\" ixy=\"0\" ixz=\"0\" iyy=\"" + fmt(iyy) +
               "\" iyz=\"0\" izz=\"" + fmt(izz) + "\"/>\n    </inertial>\n"
               "  </link>\n";
        const std::string parent =
            parents[i] < 0 ? "base" : "l" + std::to_string(parents[i]);
        out += "  <joint name=\"" + link + "_joint\" type=\"revolute\">\n"
               "    <parent link=\"" + parent + "\"/>\n"
               "    <child link=\"" + link + "\"/>\n"
               "    <origin xyz=\"" + fmt(0.05 * rng.real()) + " " +
               fmt(0.05 * rng.real()) + " " + fmt(0.1 + 0.2 * rng.real()) +
               "\" rpy=\"0 0 0\"/>\n"
               "    <axis xyz=\"" + kAxes[rng.uniform(0, 2)] + "\"/>\n"
               "    <limit lower=\"-3.1\" upper=\"3.1\" effort=\"100\""
               " velocity=\"3\"/>\n  </joint>\n";
    }
    out += "</robot>\n";
    return out;
}

std::string
perturbed_library_urdf(rt::RobotId id, const std::string &name, Rng &rng)
{
    const std::string text = rt::robot_urdf(id);
    std::string out;
    out.reserve(text.size() + 64);
    std::size_t pos = 0;
    // Rename: the first name="..." attribute is the robot's.
    const std::size_t robot_at = text.find("<robot name=\"");
    if (robot_at != std::string::npos) {
        const std::size_t start = robot_at + 13;
        const std::size_t end = text.find('"', start);
        out += text.substr(0, start) + name;
        pos = end;
    }
    const std::string key = "<mass value=\"";
    for (;;) {
        const std::size_t at = text.find(key, pos);
        if (at == std::string::npos)
            break;
        const std::size_t start = at + key.size();
        const std::size_t end = text.find('"', start);
        const double mass = std::strtod(text.c_str() + start, nullptr);
        out += text.substr(pos, start - pos);
        out += fmt(mass * (0.95 + 0.1 * rng.real()));
        pos = end;
    }
    out += text.substr(pos);
    return out;
}

} // namespace perfbench
