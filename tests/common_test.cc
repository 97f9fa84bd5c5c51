/**
 * @file
 * Unit tests for tq_common: RNG, distributions, percentiles, histograms,
 * unit conversions, and the cycle clock.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/arrival.h"
#include "common/cycles.h"
#include "common/dist.h"
#include "common/histogram.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/sched_core.h"
#include "common/shard.h"
#include "common/units.h"
#include "common/zipf.h"

namespace tq {
namespace {

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(us(2.0), 2000.0);
    EXPECT_DOUBLE_EQ(ms(1.0), 1e6);
    EXPECT_DOUBLE_EQ(sec(1.0), 1e9);
    EXPECT_DOUBLE_EQ(to_us(us(3.5)), 3.5);
    EXPECT_DOUBLE_EQ(to_sec(sec(2.0)), 2.0);
    // 1 Mrps = 1e-3 requests per nanosecond.
    EXPECT_DOUBLE_EQ(mrps(1.0), 1e-3);
    EXPECT_DOUBLE_EQ(to_mrps(mrps(4.5)), 4.5);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a();
        EXPECT_EQ(va, b());
        diverged |= (va != c());
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    double sum = 0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600); // ~6 sigma
}

TEST(Rng, ExponentialMean)
{
    Rng rng(3);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(5.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(FixedDist, AlwaysSameValue)
{
    FixedDist d(us(3), "spin");
    Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        const auto s = d.sample(rng);
        EXPECT_DOUBLE_EQ(s.demand, us(3));
        EXPECT_EQ(s.job_class, 0);
    }
    EXPECT_DOUBLE_EQ(d.mean(), us(3));
    EXPECT_EQ(d.class_names().size(), 1u);
}

TEST(ExponentialDist, MeanMatches)
{
    ExponentialDist d(us(1));
    Rng rng(2);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng).demand;
    EXPECT_NEAR(sum / n, us(1), us(0.02));
    EXPECT_DOUBLE_EQ(d.mean(), us(1));
}

TEST(MixtureDist, ClassFrequenciesMatchWeights)
{
    auto d = workload_table::extreme_bimodal();
    Rng rng(5);
    int longs = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const auto s = d->sample(rng);
        if (s.job_class == 1) {
            EXPECT_DOUBLE_EQ(s.demand, us(500));
            ++longs;
        } else {
            EXPECT_DOUBLE_EQ(s.demand, us(0.5));
        }
    }
    EXPECT_NEAR(longs / static_cast<double>(n), 0.005, 0.0012);
}

TEST(MixtureDist, MeanIsWeightedAverage)
{
    auto d = workload_table::high_bimodal();
    EXPECT_NEAR(d->mean(), 0.5 * us(1) + 0.5 * us(100), 1e-9);
}

TEST(MixtureDist, TpccHasFiveClasses)
{
    auto d = workload_table::tpcc();
    EXPECT_EQ(d->class_names().size(), 5u);
    EXPECT_EQ(d->class_names()[0], "Payment");
    EXPECT_EQ(d->class_names()[4], "StockLevel");
    // Mean of Table 1: .44*5.7 + .04*6 + .44*20 + .04*88 + .04*100
    EXPECT_NEAR(to_us(d->mean()), 19.068, 1e-6);
}

TEST(MixtureDist, RocksdbScanFraction)
{
    auto d = workload_table::rocksdb(0.5);
    Rng rng(6);
    int scans = 0;
    for (int i = 0; i < 100000; ++i)
        scans += d->sample(rng).job_class == 1;
    EXPECT_NEAR(scans / 100000.0, 0.5, 0.01);
}

TEST(PercentileTracker, ExactQuantilesOfKnownData)
{
    PercentileTracker t;
    for (int i = 1; i <= 1000; ++i)
        t.add(i);
    EXPECT_EQ(t.count(), 1000u);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 501.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.999), 1000.0);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 1000.0);
}

TEST(PercentileTracker, WarmupDiscardsPrefix)
{
    PercentileTracker t(0.1);
    // First 10% are huge outliers that warm-up should remove.
    for (int i = 0; i < 100; ++i)
        t.add(1e9);
    for (int i = 0; i < 900; ++i)
        t.add(1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(t.mean(), 1.0);
    EXPECT_DOUBLE_EQ(t.max(), 1.0);
    // Queries reorder only the samples behind the cut.
    const double qs[] = {0.0, 1.0};
    EXPECT_EQ(t.quantiles(qs), std::vector<double>(2, 1.0));
    EXPECT_DOUBLE_EQ(t.max(), 1.0);
}

TEST(PercentileTracker, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(PercentileTracker, BatchQuantilesMatchSingleCalls)
{
    Rng rng(11);
    PercentileTracker t;
    PercentileTracker warm_t(0.1);
    t.reserve(4000);
    for (int i = 0; i < 4000; ++i) {
        const double v = rng.exponential(3.0);
        t.add(v);
        warm_t.add(v);
    }
    const double qs[] = {0.0, 0.5, 0.99, 0.999, 1.0};
    const auto batch = t.quantiles(qs);
    const auto warm = warm_t.quantiles(qs);
    ASSERT_EQ(batch.size(), std::size(qs));
    for (size_t i = 0; i < std::size(qs); ++i) {
        EXPECT_DOUBLE_EQ(batch[i], t.quantile(qs[i]));
        EXPECT_DOUBLE_EQ(warm[i], warm_t.quantile(qs[i]));
    }
    EXPECT_EQ(PercentileTracker().quantiles(qs),
              std::vector<double>(std::size(qs), 0.0));
}

TEST(PercentileTracker, MatchesSortOracleOnRandomData)
{
    Rng rng(9);
    PercentileTracker t;
    std::vector<double> oracle;
    for (int i = 0; i < 5000; ++i) {
        const double v = rng.uniform(0, 1000);
        t.add(v);
        oracle.push_back(v);
    }
    std::sort(oracle.begin(), oracle.end());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        size_t rank = static_cast<size_t>(q * oracle.size());
        if (rank >= oracle.size())
            rank = oracle.size() - 1;
        EXPECT_DOUBLE_EQ(t.quantile(q), oracle[rank]) << "q=" << q;
    }
}

TEST(PercentileTracker, BatchQuantilesInAnyOrderMatchSortOracle)
{
    // quantiles() selects the highest rank first and each lower one in
    // the prefix in front of it; q lists that are unsorted, descending
    // or repeated, on tie-heavy and on distinct data, pin that order.
    const std::vector<std::vector<double>> q_lists = {
        {0.5, 0.999, 0.0, 0.99, 1.0, 0.25},
        {1.0, 0.999, 0.99, 0.5, 0.1, 0.0},
        {0.99, 0.5, 0.99, 0.999, 0.5, 0.999, 0.0, 0.0},
        {0.0, 0.001, 0.5, 0.999, 1.0},
    };
    Rng rng(17);
    for (const bool ties : {true, false}) {
        std::vector<double> data;
        for (int i = 0; i < 5000; ++i)
            data.push_back(ties ? static_cast<double>(rng.below(4))
                                : rng.uniform(0, 1000));
        for (const double warmup : {0.0, 0.1}) {
            const size_t begin = static_cast<size_t>(
                std::floor(static_cast<double>(data.size()) * warmup));
            std::vector<double> oracle(data.begin() +
                                           static_cast<ptrdiff_t>(begin),
                                       data.end());
            std::sort(oracle.begin(), oracle.end());
            for (const auto &qs : q_lists) {
                PercentileTracker batch_t(warmup);
                PercentileTracker single_t(warmup);
                for (const double v : data) {
                    batch_t.add(v);
                    single_t.add(v);
                }
                const auto batch = batch_t.quantiles(qs);
                ASSERT_EQ(batch.size(), qs.size());
                for (size_t i = 0; i < qs.size(); ++i) {
                    size_t rank =
                        static_cast<size_t>(qs[i] * oracle.size());
                    if (rank >= oracle.size())
                        rank = oracle.size() - 1;
                    EXPECT_EQ(batch[i], oracle[rank])
                        << "ties=" << ties << " warmup=" << warmup
                        << " q=" << qs[i];
                    EXPECT_EQ(batch[i], single_t.quantile(qs[i]))
                        << "ties=" << ties << " warmup=" << warmup
                        << " q=" << qs[i];
                }
            }
        }
    }
}

TEST(Histogram, BucketEdges)
{
    // Bucket i covers [2^i, 2^(i+1)); 0 and 1 share bucket 0; huge
    // values clamp into the last bucket instead of being lost.
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 0);
    EXPECT_EQ(Histogram::bucket_of(2), 1);
    EXPECT_EQ(Histogram::bucket_of(3), 1);
    EXPECT_EQ(Histogram::bucket_of(4), 2);
    EXPECT_EQ(Histogram::bucket_of(64), 6);
    EXPECT_EQ(Histogram::bucket_of(127), 6);
    EXPECT_EQ(Histogram::bucket_of(128), 7);
    EXPECT_EQ(Histogram::bucket_of((uint64_t{1} << 39) - 1), 38);
    EXPECT_EQ(Histogram::bucket_of(uint64_t{1} << 39),
              Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucket_of(~uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(Histogram, CountsLandInRightBuckets)
{
    Histogram h;
    const uint64_t values[] = {10, 64, 127, 128, 16383, 16384,
                               uint64_t{1} << 50};
    uint64_t sum = 0;
    for (uint64_t v : values) {
        h.add(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.bucket_count(3), 1u);  // 10
    EXPECT_EQ(h.bucket_count(6), 2u);  // 64, 127
    EXPECT_EQ(h.bucket_count(7), 1u);  // 128
    EXPECT_EQ(h.bucket_count(13), 1u); // 16383
    EXPECT_EQ(h.bucket_count(14), 1u); // 16384
    EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1u); // clamped
    uint64_t in_buckets = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i)
        in_buckets += h.bucket_count(i);
    EXPECT_EQ(in_buckets, h.count());
}

TEST(Histogram, TailCountAtBucketResolution)
{
    // The share of samples above a threshold, read off the buckets: a
    // bucket straddling the threshold counts as above it.
    Histogram h;
    for (int i = 0; i < 90; ++i)
        h.add(100); // bucket [64,128)
    for (int i = 0; i < 10; ++i)
        h.add(100000);
    const auto above = [&h](uint64_t threshold) {
        uint64_t n = 0;
        for (int i = Histogram::bucket_of(threshold);
             i < Histogram::kBuckets; ++i)
            n += h.bucket_count(i);
        return static_cast<double>(n) / static_cast<double>(h.count());
    };
    EXPECT_NEAR(above(8192), 0.10, 1e-9);
    EXPECT_NEAR(above(64), 1.0, 1e-9);
    EXPECT_NEAR(above(100), 1.0, 1e-9); // 100 straddles [64,128)
}

TEST(PoissonProcess, DrawsMatchTheInlineExponential)
{
    // Every draw is one exponential at the mean gap 1 / rate added to
    // the previous arrival: the stream the sim's bit-for-bit pins and
    // the runtime/sim arrival-parity tests rely on.
    const double rate = 2e-3;
    const PoissonProcess poisson(rate);
    Rng a(9), b(9);
    double t = 0, u = 0;
    for (int i = 0; i < 100; ++i) {
        t = poisson.next(t, a);
        u += b.exponential(1.0 / rate);
        ASSERT_EQ(t, u);
    }
}

TEST(Zipf, FrequenciesMatchPmf)
{
    const uint64_t n = 16;
    Zipf z(n, 1.2);
    Rng rng(23);
    std::vector<uint64_t> counts(n, 0);
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t r = z.sample(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    double pmf_sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
        const double expected = z.pmf(r);
        pmf_sum += expected;
        const double observed =
            static_cast<double>(counts[r]) / samples;
        EXPECT_NEAR(observed, expected, 0.05 * expected + 0.002)
            << "rank " << r;
    }
    EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
    // Monotone popularity: rank 0 is the hottest.
    for (uint64_t r = 1; r < n; ++r)
        EXPECT_GE(counts[r - 1], counts[r] / 2);
}

// Regression (s -> 1 precision): the naive h-integral
// (x^(1-s) - 1) / (1 - s) is 0/0 at s = 1. The rejection-inversion
// helpers switch to expm1/log1p forms, so the distribution must vary
// continuously through s = 1 instead of collapsing or NaN-ing.
TEST(Zipf, ContinuousThroughSEqualsOne)
{
    const uint64_t n = 1024;
    const double eps = 1e-12; // well inside double rounding of 1 - s
    Zipf below(n, 1.0 - eps), at(n, 1.0), above(n, 1.0 + eps);
    for (uint64_t r : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                       uint64_t{511}, n - 1}) {
        const double p = at.pmf(r);
        ASSERT_TRUE(std::isfinite(p));
        ASSERT_GT(p, 0.0);
        EXPECT_NEAR(below.pmf(r), p, 1e-6 * p);
        EXPECT_NEAR(above.pmf(r), p, 1e-6 * p);
    }
    // Sampling at exactly s = 1 stays in range and hits the head hard.
    Rng rng(31);
    uint64_t head = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t r = at.sample(rng);
        ASSERT_LT(r, n);
        head += r == 0;
    }
    // pmf(0) at s=1, n=1024 is 1/H_1024 ~ 0.133.
    EXPECT_NEAR(static_cast<double>(head) / samples, at.pmf(0),
                0.25 * at.pmf(0));
}

TEST(Zipf, DegenerateCases)
{
    Zipf one(1, 0.99);
    EXPECT_DOUBLE_EQ(one.pmf(0), 1.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(one.sample(rng), 0u);
    // s = 0 is the uniform distribution.
    Zipf uniform(64, 0.0);
    for (uint64_t r = 0; r < 64; ++r)
        EXPECT_NEAR(uniform.pmf(r), 1.0 / 64, 1e-12);
}

TEST(ShardSpan, PartitionIsContiguousDisjointAndEven)
{
    // Every (workers, shards) pair up to 64 workers and 16 shards: the
    // spans must tile [0, W) in order (contiguous), give every worker
    // exactly one owner (disjoint and covering) and differ by at most
    // one worker (even).
    for (int workers = 1; workers <= 64; ++workers) {
        for (int shards = 1; shards <= std::min(workers, 16); ++shards) {
            int next = 0;
            int min_count = workers, max_count = 0;
            std::vector<int> owners(static_cast<size_t>(workers), 0);
            for (int s = 0; s < shards; ++s) {
                const ShardSpan span = shard_span(workers, shards, s);
                ASSERT_EQ(span.first, next)
                    << workers << "w/" << shards << "s shard " << s;
                ASSERT_GE(span.count, 1);
                min_count = std::min(min_count, span.count);
                max_count = std::max(max_count, span.count);
                for (int w = span.first; w < span.first + span.count; ++w)
                    ++owners[static_cast<size_t>(w)];
                next = span.first + span.count;
            }
            ASSERT_EQ(next, workers);
            for (int w = 0; w < workers; ++w)
                ASSERT_EQ(owners[static_cast<size_t>(w)], 1)
                    << workers << "w/" << shards << "s worker " << w;
            ASSERT_LE(max_count - min_count, 1);
        }
    }
}

TEST(PickMinRotated, MatchesScalarOracleUnderRandomLoads)
{
    // Property test for the front-tier JSQ pick: against a brute-force
    // oracle, the winner must be the *earliest shard in rotated order*
    // holding the global minimum load (strictly-smaller-wins contract,
    // common/shard.h). Small load ranges force heavy tying so the
    // tie-break path dominates the trials.
    Rng rng(2024);
    for (int trial = 0; trial < 20000; ++trial) {
        const size_t n = 1 + rng.below(16);
        uint32_t loads[16];
        for (size_t i = 0; i < n; ++i)
            loads[i] = static_cast<uint32_t>(rng.below(trial % 2 ? 4 : 1000));
        const uint64_t start = rng() % 1000;
        const int got = pick_min_rotated(loads, n, start);

        uint32_t min_load = loads[0];
        for (size_t i = 1; i < n; ++i)
            min_load = std::min(min_load, loads[i]);
        int oracle = -1;
        for (size_t step = 0; step < n; ++step) {
            const size_t i = (static_cast<size_t>(start % n) + step) % n;
            if (loads[i] == min_load) {
                oracle = static_cast<int>(i);
                break;
            }
        }
        ASSERT_EQ(got, oracle) << "trial " << trial << " n=" << n
                               << " start=" << start;
        ASSERT_EQ(loads[static_cast<size_t>(got)], min_load);
    }
}

TEST(PickMinRotated, RotationRoundRobinsTiedShards)
{
    // At idle every load estimate reads zero; successive rotated starts
    // must spread picks round-robin instead of piling onto shard 0.
    const uint32_t idle[4] = {0, 0, 0, 0};
    for (uint64_t k = 0; k < 64; ++k)
        EXPECT_EQ(pick_min_rotated(idle, 4, k),
                  static_cast<int>(k % 4));
}

using QEntry = sched::RunEntry<int>;

bool
same_entry(const QEntry &a, const QEntry &b)
{
    return a.handle == b.handle && a.seq == b.seq && a.quanta == b.quanta &&
           a.slot == b.slot;
}

/** Brute-force oracle for RunQueue: a plain vector in queue order. The
 *  ring pops its front-most entry; LAS scans for the fewest quanta,
 *  then the earliest seq. extract() does the same over one slot. */
size_t
oracle_best(const std::vector<QEntry> &q, bool las, int slot)
{
    size_t best = q.size();
    for (size_t i = 0; i < q.size(); ++i) {
        if (slot >= 0 && q[i].slot != slot)
            continue;
        if (best == q.size()) {
            best = i;
            if (!las)
                break;
        } else if (q[i].quanta < q[best].quanta ||
                   (q[i].quanta == q[best].quanta &&
                    q[i].seq < q[best].seq)) {
            best = i;
        }
    }
    return best;
}

TEST(SchedCore, RunQueueMatchesBruteForceOracle)
{
    // Random admit/pop/requeue/extract sequences against the scan
    // oracle, for the ring (PS/FCFS) and the LAS heap alike. Frequent
    // requeues keep many entries at equal quanta, so the seq tie-break
    // and the slot filter of the guard's extract decide most picks.
    Rng rng(77);
    for (int trial = 0; trial < 20000; ++trial) {
        const bool las = trial % 2 == 1;
        const int slots = 1 + static_cast<int>(rng.below(4));
        sched::RunQueue<int> rq(las);
        std::vector<QEntry> oracle;
        uint64_t seq = 0;
        int next_handle = 0;
        const int ops = 1 + static_cast<int>(rng.below(48));
        for (int op = 0; op < ops; ++op) {
            const uint64_t kind = rng.below(4);
            if (kind == 0 || oracle.empty()) {
                const int slot = static_cast<int>(rng.below(slots));
                rq.admit(next_handle, slot);
                oracle.push_back(
                    {next_handle++, 0, seq++, static_cast<uint8_t>(slot)});
            } else if (kind == 3) {
                const int slot = static_cast<int>(rng.below(slots));
                const std::optional<QEntry> got = rq.extract(slot);
                const size_t want = oracle_best(oracle, las, slot);
                ASSERT_EQ(got.has_value(), want < oracle.size())
                    << "trial " << trial << " op " << op;
                if (got) {
                    ASSERT_TRUE(same_entry(*got, oracle[want]))
                        << "trial " << trial << " op " << op;
                    oracle.erase(oracle.begin() +
                                 static_cast<ptrdiff_t>(want));
                }
            } else {
                const QEntry got = rq.pop();
                const size_t want = oracle_best(oracle, las, -1);
                ASSERT_TRUE(same_entry(got, oracle[want]))
                    << "trial " << trial << " op " << op;
                oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(want));
                if (kind == 1) { // preempted: back with one more quantum
                    rq.requeue(got);
                    QEntry back = got;
                    ++back.quanta;
                    oracle.push_back(back);
                }
            }
            ASSERT_EQ(rq.size(), oracle.size());
        }
    }
}

/** Operation mix of the long-run trials below: the backlog grows until
 *  it holds kHigh entries, then shrinks to kLow, and so on, so a run of
 *  thousands of operations keeps the queue non-empty while the ring's
 *  consumed prefix is compacted many times over. */
struct BacklogSweep
{
    static constexpr size_t kLow = 4;
    static constexpr size_t kHigh = 200;
    bool growing = true;

    /** 0 admit, 1 pop and requeue, 2 pop and finish, 3 extract. */
    uint64_t
    next(Rng &rng, size_t size)
    {
        if (size <= kLow)
            growing = true;
        else if (size >= kHigh)
            growing = false;
        const uint64_t r = rng.below(8);
        if (growing)
            return r < 4 ? 0 : r < 6 ? 1 : r < 7 ? 2 : 3;
        return r < 1 ? 0 : r < 3 ? 1 : r < 6 ? 2 : 3;
    }
};

TEST(SchedCore, RunQueueLongRunsMatchBruteForceOracle)
{
    // The short trials above stay far below the ring's compaction
    // threshold (64 consumed entries). Here 6000 operations per trial
    // hold a backlog of ~4-200 entries, so the ring compacts while
    // entries remain, and every pop and extract is still checked
    // against the scan oracle.
    Rng rng(4242);
    for (int trial = 0; trial < 8; ++trial) {
        const bool las = trial % 2 == 1;
        const int slots = 1 + trial / 2;
        sched::RunQueue<int> rq(las);
        std::vector<QEntry> oracle;
        BacklogSweep sweep;
        uint64_t seq = 0;
        int next_handle = 0;
        size_t peak = 0;
        for (int op = 0; op < 6000; ++op) {
            const uint64_t kind = sweep.next(rng, oracle.size());
            if (kind == 0 || oracle.empty()) {
                const int slot = static_cast<int>(rng.below(slots));
                rq.admit(next_handle, slot);
                oracle.push_back(
                    {next_handle++, 0, seq++, static_cast<uint8_t>(slot)});
            } else if (kind == 3) {
                const int slot = static_cast<int>(rng.below(slots));
                const std::optional<QEntry> got = rq.extract(slot);
                const size_t want = oracle_best(oracle, las, slot);
                ASSERT_EQ(got.has_value(), want < oracle.size())
                    << "trial " << trial << " op " << op;
                if (got) {
                    ASSERT_TRUE(same_entry(*got, oracle[want]))
                        << "trial " << trial << " op " << op;
                    oracle.erase(oracle.begin() +
                                 static_cast<ptrdiff_t>(want));
                }
            } else {
                const QEntry got = rq.pop();
                const size_t want = oracle_best(oracle, las, -1);
                ASSERT_TRUE(same_entry(got, oracle[want]))
                    << "trial " << trial << " op " << op;
                oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(want));
                if (kind == 1) {
                    rq.requeue(got);
                    QEntry back = got;
                    ++back.quanta;
                    oracle.push_back(back);
                }
            }
            ASSERT_EQ(rq.size(), oracle.size());
            ASSERT_EQ(rq.empty(), oracle.empty());
            peak = std::max(peak, oracle.size());
        }
        EXPECT_GE(peak, BacklogSweep::kHigh) << "trial " << trial;
        EXPECT_GT(seq, 1000u) << "trial " << trial;
    }
}

TEST(SchedCore, AbandonAfterCompactionEmptiesQueueAndLedger)
{
    // A SchedCore driven through thousands of admit/next/requeue/finish
    // steps (the ring compacting many times on the way) must still pop
    // in oracle order, keep each slot's runnable count equal to its
    // queued entries, and on abandon() drop exactly what is queued. The
    // queue then starts over cleanly.
    Rng rng(9001);
    for (const bool las : {false, true}) {
        constexpr int kSlots = 3;
        sched::SchedCore<Cycles, int> core(
            sched::SchedShape<Cycles>{las, kSlots, 0, 0});
        std::vector<QEntry> oracle;
        BacklogSweep sweep;
        uint64_t seq = 0;
        int next_handle = 0;
        const auto admit = [&] {
            const int job_class = static_cast<int>(rng.below(kSlots));
            ASSERT_EQ(core.admit(next_handle, job_class), job_class);
            oracle.push_back({next_handle++, 0, seq++,
                              static_cast<uint8_t>(job_class)});
        };
        for (int op = 0; op < 6000; ++op) {
            const uint64_t kind = sweep.next(rng, oracle.size());
            if (kind == 0 || oracle.empty()) {
                admit();
            } else {
                const auto [got, promoted] = core.next();
                ASSERT_FALSE(promoted);
                const size_t want = oracle_best(oracle, las, -1);
                ASSERT_TRUE(same_entry(got, oracle[want]))
                    << "las " << las << " op " << op;
                oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(want));
                if (kind == 1) {
                    core.requeue(got);
                    QEntry back = got;
                    ++back.quanta;
                    oracle.push_back(back);
                } else {
                    core.finish(got);
                }
            }
            for (int s = 0; s < kSlots; ++s)
                ASSERT_EQ(core.ledger().account(s).runnable,
                          std::count_if(oracle.begin(), oracle.end(),
                                        [s](const QEntry &e) {
                                            return e.slot == s;
                                        }))
                    << "las " << las << " op " << op << " slot " << s;
        }
        ASSERT_FALSE(oracle.empty());
        EXPECT_EQ(core.abandon(), oracle.size());
        EXPECT_TRUE(core.empty());
        for (int s = 0; s < kSlots; ++s)
            EXPECT_EQ(core.ledger().account(s).runnable, 0u);
        EXPECT_EQ(core.abandon(), 0u) << "a second sweep finds nothing";

        oracle.clear();
        for (int i = 0; i < 5; ++i)
            admit();
        while (!oracle.empty()) {
            const QEntry got = core.next().first;
            const size_t want = oracle_best(oracle, las, -1);
            ASSERT_TRUE(same_entry(got, oracle[want])) << "las " << las;
            oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(want));
            core.finish(got);
        }
        EXPECT_TRUE(core.empty());
    }
}

TEST(SchedCore, LedgerAgreesAcrossCyclesAndSimNanos)
{
    // The runtime instantiates the ledger on integral cycles, the sim
    // on double nanoseconds. On the same integer inputs both must grant
    // the same budgets, bank the same deficits and promote the same
    // slots. Bases are multiples of 4 so the base/4 floor is exact in
    // both time types.
    Rng rng(2025);
    for (int trial = 0; trial < 2000; ++trial) {
        const int slots = 1 + static_cast<int>(rng.below(4));
        const uint64_t clamp = 4 * rng.below(500);
        const uint64_t promote = rng.below(4);
        sched::ClassLedger<Cycles> cyc(slots, clamp, promote);
        sched::ClassLedger<SimNanos> sim(slots, static_cast<double>(clamp),
                                         promote);
        std::vector<uint32_t> runnable(static_cast<size_t>(slots), 0);
        for (int op = 0; op < 64; ++op) {
            const int s = static_cast<int>(rng.below(slots));
            const uint64_t kind = rng.below(3);
            if (kind == 0) {
                cyc.enter(s);
                sim.enter(s);
                ++runnable[static_cast<size_t>(s)];
            } else if (kind == 1 && runnable[static_cast<size_t>(s)] > 0) {
                cyc.leave(s);
                sim.leave(s);
                --runnable[static_cast<size_t>(s)];
            } else {
                ASSERT_EQ(cyc.starved(), sim.starved()) << "trial " << trial;
                const uint64_t base = 4 * (1 + rng.below(1000));
                const Cycles b_cyc = cyc.grant(s, base);
                const SimNanos b_sim =
                    sim.grant(s, static_cast<double>(base));
                ASSERT_EQ(static_cast<double>(b_cyc), b_sim)
                    << "trial " << trial << " op " << op;
                const uint64_t used = rng.below(3 * base);
                cyc.settle(s, b_cyc, used);
                sim.settle(s, b_sim, static_cast<double>(used));
            }
            for (int k = 0; k < slots; ++k) {
                const auto &a = cyc.account(k);
                const auto &b = sim.account(k);
                ASSERT_EQ(static_cast<double>(a.deficit), b.deficit)
                    << "trial " << trial << " op " << op << " slot " << k;
                ASSERT_LE(a.deficit, static_cast<int64_t>(clamp));
                ASSERT_GE(a.deficit, -static_cast<int64_t>(clamp));
                ASSERT_EQ(a.skipped, b.skipped);
                ASSERT_EQ(a.runnable, b.runnable);
                ASSERT_EQ(a.grants, b.grants);
                ASSERT_EQ(static_cast<double>(a.granted), b.granted);
            }
        }
    }
}

TEST(SchedCore, LedgerPinsClampFloorAndSettlementRule)
{
    sched::ClassLedger<Cycles> l(/*slots=*/2, /*deficit_clamp=*/400,
                                 /*promote_after=*/0);
    EXPECT_EQ(l.budget(0, 1000), 1000u) << "no deficit: the base";
    // Credit is clamped: 1000 granted, 100 used banks 900 -> 400.
    l.settle(0, 1000, 100);
    EXPECT_EQ(l.account(0).deficit, 400);
    EXPECT_EQ(l.budget(0, 1000), 1400u);
    // "granted" is the effective budget, credit included, and the
    // deficit becomes what it left over: a slice armed with 1400 that
    // uses exactly 1400 spends the credit.
    l.settle(0, 1400, 1400);
    EXPECT_EQ(l.account(0).deficit, 0);
    EXPECT_EQ(l.budget(0, 1000), 1000u);
    // Debt is clamped too: 1400 - 3000 = -1600 -> -400.
    l.settle(0, 1400, 3000);
    EXPECT_EQ(l.account(0).deficit, -400);
    EXPECT_EQ(l.budget(0, 1000), 600u);
    EXPECT_EQ(l.account(1).deficit, 0) << "slots settle independently";

    // The floor: base/4 + 1 however deep the debt.
    sched::ClassLedger<Cycles> deep(1, 2000, 0);
    deep.settle(0, 1000, 5000);
    EXPECT_EQ(deep.account(0).deficit, -2000);
    EXPECT_EQ(deep.budget(0, 1000), 251u);

    // Every preempted slice runs past its armed budget by the probe
    // latency. The debt is that last overrun, not a sum of them: after
    // one floor grant the class is back at base minus the overrun, and
    // it stays there (`deficit += granted - used` sank to -clamp and
    // kept the floor budget instead).
    for (int i = 0; i < 100; ++i) {
        const Cycles granted = deep.budget(0, 1000);
        EXPECT_EQ(granted, i == 0 ? 251u : 950u) << "slice " << i;
        deep.settle(0, granted, granted + 50);
        EXPECT_EQ(deep.account(0).deficit, -50) << "slice " << i;
    }
}

/** Seeded random slices on one ledger slot, checked against Deficit
 *  Round Robin's settlement after every slice; then a constant overrun
 *  and a single huge one (a host stall) on top of that history. Bases
 *  and clamps are multiples of 4, so Cycles and SimNanos agree. */
template <typename Time>
void
check_drr_settlement(uint64_t seed)
{
    using Signed = typename sched::ClassLedger<Time>::Signed;
    const auto t = [](uint64_t v) { return static_cast<Time>(v); };
    const auto s = [](uint64_t v) { return static_cast<Signed>(v); };
    Rng rng(seed);
    for (int trial = 0; trial < 500; ++trial) {
        const uint64_t clamp = 4 * (1 + rng.below(1000));
        sched::ClassLedger<Time> l(1, t(clamp), 0);
        const auto deficit = [&] { return l.account(0).deficit; };
        for (int op = 0; op < 32; ++op) {
            const uint64_t base = 4 * (1 + rng.below(1000));
            const Time eff = l.grant(0, t(base));
            const uint64_t used = rng.below(3 * base); // early or overrun
            l.settle(0, eff, t(used));
            ASSERT_LE(deficit(), s(clamp)) << "trial " << trial;
            ASSERT_GE(deficit(), -s(clamp)) << "trial " << trial;
            ASSERT_EQ(deficit(),
                      std::clamp(static_cast<Signed>(eff) - s(used),
                                 -s(clamp), s(clamp)))
                << "trial " << trial << " op " << op;
        }

        // A constant overrun o settles at -o after one slice, whatever
        // the history, and the budget at base - o (above the floor).
        const uint64_t base = 4 * (1 + rng.below(1000));
        const uint64_t floor = base / 4 + 1;
        const uint64_t o = 1 + rng.below(std::min(clamp, base / 2));
        for (int i = 0; i < 4; ++i) {
            const Time eff = l.grant(0, t(base));
            if (i > 0) {
                ASSERT_EQ(eff, t(std::max(floor, base - o)))
                    << "trial " << trial;
            }
            l.settle(0, eff, eff + t(o));
            ASSERT_EQ(deficit(), -s(o)) << "trial " << trial << " i " << i;
        }

        // A host stall sinks the class to -clamp: it costs one grant at
        // the lowest budget (the floor once clamp >= base), then the
        // class is back at the steady overrun.
        const uint64_t small = 4 * (1 + rng.below(clamp / 4));
        const uint64_t small_floor = small / 4 + 1;
        const uint64_t small_o = 1 + rng.below(small / 2);
        Time eff = l.grant(0, t(small));
        l.settle(0, eff, eff + t(1000 * clamp));
        ASSERT_EQ(deficit(), -s(clamp)) << "trial " << trial;
        eff = l.grant(0, t(small));
        ASSERT_EQ(eff, t(small_floor)) << "trial " << trial;
        l.settle(0, eff, eff + t(small_o));
        ASSERT_EQ(deficit(), -s(small_o)) << "trial " << trial;
        ASSERT_EQ(l.budget(0, t(small)),
                  t(std::max(small_floor, small - small_o)))
            << "trial " << trial;
    }
}

TEST(SchedCore, LedgerSettlesByDeficitRoundRobinOnRandomSlices)
{
    check_drr_settlement<Cycles>(1995);
    check_drr_settlement<SimNanos>(1995);
}

TEST(SchedCore, StarvationGuardPicksTheLongestSkippedRunnableSlot)
{
    sched::ClassLedger<Cycles> l(/*slots=*/3, /*deficit_clamp=*/0,
                                 /*promote_after=*/2);
    l.enter(0);
    l.enter(1);
    l.grant(0, 100);
    EXPECT_EQ(l.starved(), -1) << "slot 1 skipped once, threshold 2";
    l.grant(0, 100);
    EXPECT_EQ(l.account(1).skipped, 2u);
    EXPECT_EQ(l.account(2).skipped, 0u) << "idle slots never age";
    EXPECT_EQ(l.starved(), 1);
    // A tie between two starved slots goes to the lower one.
    l.enter(2);
    l.grant(1, 100);
    l.grant(1, 100);
    EXPECT_EQ(l.account(0).skipped, 2u);
    EXPECT_EQ(l.account(2).skipped, 2u);
    EXPECT_EQ(l.starved(), 0);
    // Granting the starved slot resets its age.
    l.grant(0, 100);
    EXPECT_EQ(l.starved(), 2);

    // promote_after = 0 turns the guard off.
    sched::ClassLedger<Cycles> off(2, 0, 0);
    off.enter(1);
    for (int i = 0; i < 1000; ++i)
        off.grant(0, 100);
    EXPECT_EQ(off.starved(), -1);
}

TEST(SchedCore, OneSlotShapeIsTheFixedQuantum)
{
    // The degenerate shape every engine runs without per-class quanta:
    // any class books to slot 0, every budget is slot 0's quantum
    // whatever the slices used, and the guard never fires.
    sched::SchedShape<Cycles> one_slot;
    one_slot.quantum[0] = 2000;
    sched::SchedCore<Cycles, int> core(one_slot);
    EXPECT_EQ(core.admit(1, 0), 0);
    EXPECT_EQ(core.admit(2, 5), 0);
    EXPECT_EQ(core.admit(3, -1), 0);
    for (int i = 0; i < 30; ++i) {
        const auto [e, promoted] = core.next();
        EXPECT_FALSE(promoted);
        EXPECT_EQ(e.handle, 1 + i % 3) << "ring rotation";
        const Cycles budget = core.grant(e);
        EXPECT_EQ(budget, 2000u);
        core.settle(e, budget, i % 2 ? 10 : 9000);
        core.requeue(e);
    }
    EXPECT_EQ(core.ledger().account(0).deficit, 0);
    EXPECT_EQ(core.ledger().account(0).runnable, 3u);
    EXPECT_EQ(core.abandon(), 3u);
    EXPECT_TRUE(core.empty());
    EXPECT_EQ(core.ledger().account(0).runnable, 0u);

    // Per-class shapes: each slot's grant starts from its own quantum.
    // Under clamp 0 the budget is exactly that base; under a clamp the
    // deficit moves the budget from that base, slot by slot.
    for (const Cycles clamp : {Cycles{0}, Cycles{500}}) {
        sched::SchedShape<Cycles> shape;
        shape.slots = 3;
        shape.deficit_clamp = clamp;
        shape.quantum[0] = 1000;
        shape.quantum[1] = 2000;
        shape.quantum[2] = 4000;
        sched::SchedCore<Cycles, int> multi(shape);
        for (int c = 0; c < 3; ++c)
            EXPECT_EQ(multi.admit(c, c), c);
        // One round: every slot's first grant is its base.
        for (int c = 0; c < 3; ++c) {
            const auto [e, promoted] = multi.next();
            EXPECT_FALSE(promoted);
            const Cycles budget = multi.grant(e);
            EXPECT_EQ(budget, shape.quantum[e.slot]) << "slot " << e.slot;
            // Slot 0 finishes 200 early, slot 1 overruns by 300, slot 2
            // uses its budget exactly.
            const Cycles used = e.slot == 0   ? budget - 200
                                : e.slot == 1 ? budget + 300
                                              : budget;
            multi.settle(e, budget, used);
            multi.requeue(e);
        }
        // Second round: the base plus the banked deficit (none at
        // clamp 0).
        const Cycles want[3] = {clamp ? 1200u : 1000u,
                                clamp ? 1700u : 2000u, 4000u};
        for (int c = 0; c < 3; ++c) {
            const auto [e, promoted] = multi.next();
            EXPECT_EQ(multi.grant(e), want[e.slot])
                << "clamp " << clamp << " slot " << e.slot;
        }
    }
}

TEST(SchedCore, ResolveShapeIsOneRuleForEveryPolicy)
{
    // The rule both engines resolve their shape by: a class table under
    // PS or LAS fills every slot (past the table: the scalar quantum)
    // and turns both knobs on; no table, or FCFS, is the fixed quantum.
    using sched::Policy;
    const std::vector<SimNanos> table = {3000, 5000};
    for (const Policy p : {Policy::ProcessorSharing, Policy::Las}) {
        const auto shape =
            sched::resolve_shape<SimNanos>(p, 2000, table, 800, 64);
        EXPECT_EQ(shape.las, p == Policy::Las);
        EXPECT_EQ(shape.slots, sched::kMaxClasses);
        EXPECT_EQ(shape.deficit_clamp, 800);
        EXPECT_EQ(shape.promote_after, 64u);
        EXPECT_EQ(shape.quantum[0], 3000);
        EXPECT_EQ(shape.quantum[1], 5000);
        for (int s = 2; s < sched::kMaxClasses; ++s)
            EXPECT_EQ(shape.quantum[s], 2000) << "slot " << s;
    }
    for (const auto &classes : {table, std::vector<SimNanos>{}}) {
        const Policy policy =
            classes.empty() ? Policy::ProcessorSharing : Policy::Fcfs;
        const auto shape =
            sched::resolve_shape<SimNanos>(policy, 2000, classes, 800, 64);
        EXPECT_FALSE(shape.las);
        EXPECT_EQ(shape.slots, 1);
        EXPECT_EQ(shape.deficit_clamp, 0);
        EXPECT_EQ(shape.promote_after, 0u);
        for (int s = 0; s < sched::kMaxClasses; ++s)
            EXPECT_EQ(shape.quantum[s], 2000) << "slot " << s;
    }
    EXPECT_DEATH((sched::resolve_shape<Cycles>(Policy::Las, 2000,
                                               {4000, 0}, 0, 0)),
                 "check failed");
}

TEST(Cycles, MonotonicAndCalibrated)
{
    const double ratio = cycles_per_ns();
    EXPECT_GT(ratio, 0.1);  // >100 MHz
    EXPECT_LT(ratio, 10.0); // <10 GHz
    const Cycles a = rdcycles();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Cycles b = rdcycles();
    const double elapsed_ns = cycles_to_ns(b - a);
    EXPECT_GT(elapsed_ns, 4e6);
    EXPECT_LT(elapsed_ns, 1e9);
    EXPECT_NEAR(cycles_to_ns(ns_to_cycles(1000.0)), 1000.0, 2.0);
}

} // namespace
} // namespace tq
