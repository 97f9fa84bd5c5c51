/**
 * @file
 * The paper's microsecond-scale cache microbenchmark (section 5.5):
 * random pointer chasing over per-job arrays, interleaved in quanta,
 * under two-level (TLS) or centralized (CT) scheduling.
 *
 * Methodology mirrors section 5.5.1: each core runs X pointer-chase
 * accesses of an array per quantum (X sized to the target quantum), then
 * switches to the next array, resuming each array's saved progress. TLS
 * cores cycle over their own J = 4 arrays; CT cores cycle over all
 * C x J = 16 x 4 arrays (a job's quanta visit every core). Because the
 * cores are symmetric, one core's private cache hierarchy is simulated
 * and its average access latency reported — Figures 13 and 14 plot
 * exactly this quantity.
 */
#ifndef TQ_CACHE_CHASE_H
#define TQ_CACHE_CHASE_H

#include <cstdint>
#include <functional>

#include "cache/reuse.h"
#include "common/rng.h"
#include "common/units.h"

namespace tq::cache {

/** Configuration of one pointer-chase run, against the default
 *  CacheLatencies. */
struct ChaseConfig
{
    size_t array_bytes = 64 * 1024; ///< per-job array size (1KB..1MB)
    bool centralized = false;       ///< CT (true) vs TLS (false)
    SimNanos quantum = us(2);

    /**
     * Optional skewed-access hook: when set, each access to the current
     * array visits line `line_sampler(rng) % lines` instead of the
     * fixed random iteration order — the benches drive this with
     * workloads::ZipfKeyGen to model hot-line skew (the ROADMAP's
     * "Zipfian mix" leftover for the fig13-15 cache study). Null (the
     * default) keeps the paper's pointer chase byte-identical; the
     * cache layer itself stays independent of workloads/.
     */
    std::function<uint64_t(Rng &)> line_sampler;
};

/** Measurements of one pointer-chase run. */
struct ChaseResult
{
    double avg_latency_ns = 0;
    uint64_t accesses = 0;
    double l1_miss_rate = 0;
    double l2_miss_rate = 0; ///< misses at L2 / total accesses
};

/** Run the microbenchmark against the modeled cache hierarchy. */
ChaseResult run_chase(const ChaseConfig &cfg);

/**
 * Feed the same access stream through an exact reuse-distance analyzer
 * (Table 2's empirical check). @p max_accesses bounds the stream since
 * Olken analysis is costlier than cache simulation.
 */
ReuseAnalyzer analyze_chase_reuse(const ChaseConfig &cfg,
                                  uint64_t max_accesses);

} // namespace tq::cache

#endif // TQ_CACHE_CHASE_H
