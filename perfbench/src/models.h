/**
 * @file
 * Seeded robot inputs: URDF text written by the harness itself (chains,
 * stars, trees, and inertia-perturbed library robots) and the library
 * robot table.
 */

#ifndef PERFBENCH_MODELS_H
#define PERFBENCH_MODELS_H

#include <string>
#include <vector>

#include "common.h"
#include "topology/robot_library.h"

namespace perfbench {

/** Every bundled robot: the paper's six plus the extended fleet. */
std::vector<roboshape::topology::RobotId> library_robots();

enum class Family
{
    kChain,
    kStar,
    kTree,
};

const char *family_name(Family f);

/** Parent index per link (-1 = base) of a @p links-link @p family shape;
 *  tree branching comes from @p rng, and so does the star limb count
 *  (2-6) unless @p limbs is given. */
std::vector<int> family_parents(Family family, std::size_t links, Rng &rng,
                                std::size_t limbs = 0);

/** URDF of a tree with the given parents; geometry, joint axes, and
 *  inertias come from @p rng. */
std::string tree_urdf(const std::string &name,
                      const std::vector<int> &parents, Rng &rng);

/**
 * The library robot's URDF renamed to @p name with every link mass scaled
 * by a seeded factor in [0.95, 1.05]: same topology, new model hash.
 */
std::string perturbed_library_urdf(roboshape::topology::RobotId id,
                                   const std::string &name, Rng &rng);

} // namespace perfbench

#endif // PERFBENCH_MODELS_H
