/**
 * @file
 * The one log2-bucketed histogram.
 *
 * Telemetry's stage, per-class and value histograms record into it, and
 * so does the reuse-distance study of paper Figure 15. Bucket i counts
 * values in [2^i, 2^(i+1)), with values 0 and 1 sharing bucket 0 and
 * values >= 2^(kBuckets-1) clamped into the last bucket, so a bucket
 * bounds a value to within a factor of two (a p99 read at a bucket's
 * geometric midpoint is good to about ±41 %). An exact running sum and
 * count sit beside the buckets, so means are exact.
 */
#ifndef TQ_COMMON_HISTOGRAM_H
#define TQ_COMMON_HISTOGRAM_H

#include <atomic>
#include <cstdint>

#include "conc/cacheline.h"

namespace tq {

/**
 * Lock-free log2 histogram over uint64 values.
 *
 * add() is wait-free: one clz and three owner-only adds (owner_add(), a
 * plain load and store each) on lines of its one writing thread. Any
 * thread may read concurrently; each read is one relaxed load, so
 * bucket counts, sum and count are individually consistent but not a
 * cut across each other. A histogram with two writers would lose
 * samples.
 */
class Histogram
{
  public:
    /** Buckets cover [1, 2^40) — beyond any per-event cycle latency.
     *  Layout note: 42 uint64 atomics = 336 bytes (5.25 lines), not
     *  padded per bucket — every field has the same single writer, so
     *  internal sharing is free, and the enclosing telemetry objects
     *  group histograms by writer (docs/cache_line_analysis.md). */
    static constexpr int kBuckets = 40;

    /** Record one sample. Wait-free. */
    void
    add(uint64_t value)
    {
        owner_add(buckets_[bucket_of(value)], 1);
        owner_add(sum_, value);
        owner_add(count_, 1);
    }

    /** Bucket index a value lands in. */
    static int
    bucket_of(uint64_t value)
    {
        if (value < 2)
            return 0;
        const int log2 = 63 - __builtin_clzll(value);
        return log2 < kBuckets ? log2 : kBuckets - 1;
    }

    /** Samples in bucket @p i at the time of the load. */
    uint64_t
    bucket_count(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Number of recorded samples at the time of the load. */
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /** Exact sum of recorded values (wraps like any uint64 sum). */
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> count_{0};
};

} // namespace tq

#endif // TQ_COMMON_HISTOGRAM_H
