/**
 * @file
 * Shard topology and the front-tier JSQ pick of the simulator's
 * sharded-dispatcher model (DESIGN.md §4g). The runtime has one
 * dispatcher and does not use this file.
 *
 * A simulated cluster with S dispatcher shards divides its workers
 * into contiguous, disjoint subsets: shard s owns
 * `shard_span(num_workers, S, s)`, with the remainder of an uneven
 * split spread one-per-shard from shard 0 upward.
 *
 * The front tier steers each arriving request to a shard with
 * pick_min_rotated(): an approximate JSQ over the per-shard load
 * estimates. The scan starts at a caller-supplied rotation offset and
 * wraps; only a *strictly* smaller load displaces the incumbent, so
 * ties resolve to the earliest shard in rotated order. Rotating the
 * start (the sim uses its arrival count) spreads tied picks across
 * shards without any shared tie-break state — at idle, when every
 * estimate reads zero, arrivals round-robin instead of piling onto
 * shard 0. The pick is a pure function of (loads, start);
 * tests/common_test.cc holds it to a scalar oracle under 20000 random
 * trials.
 */
#ifndef TQ_COMMON_SHARD_H
#define TQ_COMMON_SHARD_H

#include <cstddef>
#include <cstdint>

namespace tq {

/** One shard's contiguous slice of the worker array. */
struct ShardSpan
{
    int first = 0; ///< index of the shard's first worker
    int count = 0; ///< workers owned (>= 1 when shards <= workers)
};

/**
 * Workers owned by @p shard when @p num_workers are divided over
 * @p num_shards: floor(W/S) each, with the first W%S shards taking one
 * extra so the split is maximally even and contiguous.
 */
constexpr ShardSpan
shard_span(int num_workers, int num_shards, int shard)
{
    const int base = num_workers / num_shards;
    const int extra = num_workers % num_shards;
    const int count = base + (shard < extra ? 1 : 0);
    const int first =
        shard * base + (shard < extra ? shard : extra);
    return ShardSpan{first, count};
}

/**
 * Front-tier JSQ: index of a minimally loaded shard among
 * @p loads[0..n), scanning in rotated order from `start % n`. Only a
 * strictly smaller load displaces the incumbent, so ties keep the
 * earliest shard in rotated order (see the header comment for why the
 * rotation, not the load, is the tie-break).
 */
inline int
pick_min_rotated(const uint32_t *loads, size_t n, uint64_t start)
{
    const size_t origin = static_cast<size_t>(start % n);
    size_t best = origin;
    uint32_t best_load = loads[origin];
    for (size_t step = 1; step < n; ++step) {
        size_t i = origin + step;
        if (i >= n)
            i -= n;
        if (loads[i] < best_load) {
            best = i;
            best_load = loads[i];
        }
    }
    return static_cast<int>(best);
}

} // namespace tq

#endif // TQ_COMMON_SHARD_H
