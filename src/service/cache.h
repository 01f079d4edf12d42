/**
 * @file
 * Cross-request design cache of the roboshaped daemon (docs/SERVICE.md).
 *
 * Every request names a robot (library id or URDF body) and a kernel.
 * Sweeping and compiling that pair is pure: the response depends only on
 * the model, the kernel, and the knobs — so the daemon memoizes at three
 * levels:
 *
 *  1. the `FrontCache` maps the exact request (endpoint + body bytes) to
 *     its response body, so a repeated request skips JSON, URDF parse,
 *     model build, and hashing altogether;
 *  2. the `core::SweepContext` (memoized schedules) survives across
 *     requests, keyed by a structural hash of the parsed RobotModel and
 *     confirmed by comparing the model itself, so a /v1/design after a
 *     /v1/sweep of the same topology re-runs zero scheduler passes; and
 *  3. the rendered response *bodies* are cached verbatim per entry, which
 *     is what makes a cache hit byte-identical to the cold response — the
 *     property the `bench/daemon_throughput` gate asserts.  The front
 *     level shares these body strings; it never copies them.
 *
 * Concurrency: the entry map and the front level are each guarded by one
 * mutex (lookups are cheap); each entry has its own mutex serializing the
 * lazy SweepContext accessors (which are not thread-safe, see
 * core/sweep_context.h) and body rendering.  Different topologies
 * therefore compute fully in parallel, while concurrent identical
 * requests compute once and share.
 *
 * Counters: svc.cache_hits / svc.cache_misses count requests answered
 * from a cached body / rendered fresh (a front hit counts as a hit, and
 * also as svc.front_hits).  Eviction: FIFO beyond kMaxCacheEntries
 * distinct (model, kernel) pairs, and FIFO past kFrontCacheBytes on the
 * front level — the daemon bounds memory against adversarial
 * many-topology traffic.
 */

#ifndef ROBOSHAPE_SERVICE_CACHE_H
#define ROBOSHAPE_SERVICE_CACHE_H

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/sweep_context.h"
#include "sched/task_graph.h"
#include "topology/robot_model.h"

namespace roboshape {
namespace service {

/** Distinct (model, kernel) entries kept before FIFO eviction. */
inline constexpr std::size_t kMaxCacheEntries = 64;

/**
 * Bytes (request key plus response body) the front level keeps before
 * FIFO eviction.  Counted in full even though bodies are shared with the
 * entries below, because a front entry keeps its body alive after the
 * entry that rendered it is evicted.
 */
inline constexpr std::size_t kFrontCacheBytes = 8u << 20;

/**
 * Structural hash of a robot model: name, link names, parentage, joint
 * types/axes, frames, and inertias (splitmix64-mixed FNV over the exact
 * bytes).  Equal models hash equal, so the hash picks the cache entry
 * and is echoed to clients as "topology_hash" for cache-correlation.
 * Different models may collide (it is 64 bits), so a lookup confirms a
 * match with same_model().
 */
std::uint64_t model_hash(const topology::RobotModel &model);

/**
 * Byte-exact equality over exactly the fields model_hash() reads: the
 * test that turns a hash match into a cache hit.
 */
bool same_model(const topology::RobotModel &a,
                const topology::RobotModel &b);

/** One cached topology: shared schedules + rendered response bodies. */
class CacheEntry
{
  public:
    CacheEntry(std::shared_ptr<const topology::RobotModel> model,
               sched::KernelKind kernel)
        : model_(std::move(model)), kernel_(kernel)
    {
    }

    /** Serializes all lazy work on this entry (see file comment). */
    std::mutex &mutex() { return mutex_; }

    const topology::RobotModel &model() const { return *model_; }
    sched::KernelKind kernel() const { return kernel_; }

    /**
     * The entry's SweepContext, created on first use.  Caller must hold
     * mutex(); the context's lazy accessors stay guarded by it too.
     */
    core::SweepContext &context();

    /** A rendered response body, shared with the front level. */
    using Body = std::shared_ptr<const std::string>;

    /**
     * Cached response body for @p key (an endpoint-specific string like
     * "sweep" or "design/4/4/2"); nullptr when not rendered yet.  Caller
     * must hold mutex().
     */
    Body find_body(const std::string &key) const;
    /** Stores @p body under @p key.  Caller must hold mutex(). */
    Body store_body(const std::string &key, std::string body);

  private:
    std::mutex mutex_;
    std::shared_ptr<const topology::RobotModel> model_;
    sched::KernelKind kernel_;
    std::unique_ptr<core::SweepContext> context_;
    std::map<std::string, Body> bodies_;
};

class DesignCache
{
  public:
    /**
     * Entry for (@p hash, @p kernel), created from @p model when absent.
     * The returned shared_ptr stays valid across eviction (an evicted
     * entry finishes its in-flight requests and then dies).  When the
     * resident entry under that key holds a different model (a hash
     * collision), returns a fresh entry that is not inserted and counts
     * svc.cache_collisions.
     */
    std::shared_ptr<CacheEntry>
    entry(std::uint64_t hash, sched::KernelKind kernel,
          const topology::RobotModel &model);

    /** Number of resident (model, kernel) entries. */
    std::size_t size() const;

  private:
    using Key = std::pair<std::uint64_t, sched::KernelKind>;

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<CacheEntry>> entries_;
    std::deque<Key> order_; // FIFO eviction order
};

/**
 * Request-keyed front level: (route, exact request body bytes) -> the
 * response body a model-level entry rendered for it.  Lookups hash the
 * body a word at a time and confirm by comparing every key byte, so a
 * hash collision is a miss, never a wrong body.  The byte budget is
 * kFrontCacheBytes, evicted FIFO.
 */
class FrontCache
{
  public:
    /** Endpoints whose 200 bodies are pure functions of the request. */
    enum class Route
    {
        kDesign,
        kSweep,
    };

    /** Cached body for @p request on @p route; nullptr on a miss. */
    CacheEntry::Body find(Route route, std::string_view request) const;

    /**
     * Admits @p request -> @p body on @p route, evicting the oldest
     * entries past the budget.  An entry larger than the whole budget is
     * not admitted; a key already present keeps its body.
     */
    void insert(Route route, std::string_view request,
                CacheEntry::Body body);

    /** Resident entries, and their key plus body bytes. */
    std::size_t size() const;
    std::size_t bytes() const;

  private:
    struct KeyHash
    {
        using is_transparent = void;
        std::size_t operator()(std::string_view key) const noexcept
        {
            return std::hash<std::string_view>{}(key);
        }
    };
    using Map = std::unordered_map<std::string, CacheEntry::Body, KeyHash,
                                   std::equal_to<>>;

    mutable std::mutex mutex_;
    std::array<Map, 2> maps_; // indexed by Route
    // FIFO eviction order; node keys stay put across rehashing.
    std::deque<std::pair<Route, const std::string *>> order_;
    std::size_t bytes_ = 0;
};

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_CACHE_H
