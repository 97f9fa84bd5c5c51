/**
 * @file
 * Tests for the cache model: LRU set-associative behaviour against
 * hand-computed traces, hierarchy latencies, exact reuse distances vs a
 * brute-force oracle, and the pointer-chase microbenchmark's reuse
 * structure (the paper's Table 2).
 */
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/cache_sim.h"
#include "cache/chase.h"
#include "cache/reuse.h"
#include "common/rng.h"

namespace tq::cache {
namespace {

TEST(CacheLevel, HitsAfterInstall)
{
    CacheLevel c(1024, 2); // 16 lines, 8 sets x 2 ways
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1030)) << "same 64B line";
    EXPECT_FALSE(c.access(0x1040)) << "next line";
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheLevel, LruEvictionWithinSet)
{
    CacheLevel c(1024, 2); // 8 sets; set stride = 64*8 = 512
    // Three lines mapping to set 0: addresses 0, 512, 1024.
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(512));
    EXPECT_TRUE(c.access(0));      // 0 now MRU
    EXPECT_FALSE(c.access(1024));  // evicts 512 (LRU)
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(512)) << "512 was evicted";
}

TEST(CacheLevel, CapacityWorkingSetFits)
{
    CacheLevel c(32 * 1024, 8);
    // 32KB working set = 512 lines: second pass must be all hits.
    for (uint64_t i = 0; i < 512; ++i)
        c.access(i * 64);
    const uint64_t misses_after_first = c.misses();
    for (uint64_t i = 0; i < 512; ++i)
        EXPECT_TRUE(c.access(i * 64));
    EXPECT_EQ(c.misses(), misses_after_first);
}

TEST(CacheLevel, OverCapacitySetThrashes)
{
    CacheLevel c(32 * 1024, 8);
    // 64KB sequential working set with LRU: every access misses on each
    // pass (classic LRU pathological case).
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t i = 0; i < 1024; ++i)
            c.access(i * 64);
    EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheHierarchy, LatencyTiers)
{
    CacheLatencies lat;
    CacheHierarchy h(lat);
    EXPECT_DOUBLE_EQ(h.access(0x5000), lat.memory);  // cold
    EXPECT_DOUBLE_EQ(h.access(0x5000), lat.l1_hit);  // L1 hit
    // Evict from L1 (32KB) but not L2 (1MB): touch 64KB of other lines.
    for (uint64_t i = 1; i <= 1024; ++i)
        h.access(0x100000 + i * 64);
    EXPECT_DOUBLE_EQ(h.access(0x5000), lat.l2_hit);
}

// --------------------------------------------------------------- reuse --

/** Brute-force reuse distance oracle. */
class ReuseOracle
{
  public:
    uint64_t
    access(uint64_t addr)
    {
        const uint64_t line = addr >> 6;
        uint64_t distance = ReuseAnalyzer::kInfinite;
        const auto it = last_.find(line);
        if (it != last_.end()) {
            std::unordered_map<uint64_t, bool> seen;
            for (size_t i = it->second + 1; i < trace_.size(); ++i)
                seen[trace_[i]] = true;
            distance = seen.size();
        }
        last_[line] = trace_.size();
        trace_.push_back(line);
        return distance;
    }

  private:
    std::vector<uint64_t> trace_;
    std::unordered_map<uint64_t, size_t> last_;
};

TEST(ReuseAnalyzer, SimpleSequence)
{
    ReuseAnalyzer a;
    // A B C A : A's second access has distance 2 (B and C).
    EXPECT_EQ(a.access(0 * 64), ReuseAnalyzer::kInfinite);
    EXPECT_EQ(a.access(1 * 64), ReuseAnalyzer::kInfinite);
    EXPECT_EQ(a.access(2 * 64), ReuseAnalyzer::kInfinite);
    EXPECT_EQ(a.access(0 * 64), 2u);
    // Immediately repeated access: distance 0.
    EXPECT_EQ(a.access(0 * 64), 0u);
    EXPECT_EQ(a.cold(), 3u);
    EXPECT_EQ(a.accesses(), 5u);
}

TEST(ReuseAnalyzer, RepeatedArrayIterationHasDistanceArraySize)
{
    ReuseAnalyzer a;
    constexpr uint64_t kLines = 100;
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t i = 0; i < kLines; ++i) {
            const uint64_t d = a.access(i * 64);
            if (pass > 0) {
                EXPECT_EQ(d, kLines - 1)
                    << "distinct other lines between passes";
            }
        }
    }
}

TEST(ReuseAnalyzer, MatchesBruteForceOracleOnRandomTraces)
{
    Rng rng(123);
    ReuseAnalyzer a;
    ReuseOracle oracle;
    for (int i = 0; i < 3000; ++i) {
        const uint64_t addr = rng.below(64) * 64; // 64 hot lines
        ASSERT_EQ(a.access(addr), oracle.access(addr)) << "access " << i;
    }
}

TEST(ReuseAnalyzer, ByteThresholdFractions)
{
    ReuseAnalyzer a;
    for (uint64_t i = 0; i < 32; ++i)
        a.access(i * 64);
    for (uint64_t i = 0; i < 32; ++i)
        a.access(i * 64); // distance 31 lines = 1984 bytes
    EXPECT_EQ(a.distances(), std::vector<uint64_t>(32, 31));
    EXPECT_NEAR(a.fraction_above_bytes(1024), 1.0, 1e-9);
    EXPECT_NEAR(a.fraction_above_bytes(4096), 0.0, 1e-9);
}

// --------------------------------------------------------------- chase --

TEST(Chase, Table2ReuseAmplification)
{
    // Paper Table 2: the first access of an element within a quantum has
    // reuse distance J*A under TLS and C*J*A under CT; later accesses
    // within the quantum have distance <= A. With an 8KB array and a
    // quantum shorter than one iteration, essentially every access is a
    // first access, so TLS distances cluster at ~4*8KB=32KB and CT at
    // ~64*8KB=512KB.
    ChaseConfig cfg;
    cfg.array_bytes = 8 * 1024;
    cfg.quantum = us(0.5); // X=50 accesses << 128 lines per iteration
    cfg.centralized = false;
    const ReuseAnalyzer tls = analyze_chase_reuse(cfg, 60'000);
    // TLS: distances must sit between A and J*A (here 8KB..32KB).
    EXPECT_GT(tls.fraction_above_bytes(8 * 1024), 0.9);
    EXPECT_LT(tls.fraction_above_bytes(40 * 1024), 0.05);

    cfg.centralized = true;
    const ReuseAnalyzer ct = analyze_chase_reuse(cfg, 60'000);
    EXPECT_GT(ct.fraction_above_bytes(256 * 1024), 0.9)
        << "CT amplifies by total concurrent jobs";
}

TEST(Chase, SmallArraysFitL1RegardlessOfQuantum)
{
    // Figure 13: arrays up to 8KB see no extra misses from small quanta
    // (4 jobs x 8KB = 32KB = L1 capacity).
    ChaseConfig cfg;
    cfg.array_bytes = 4 * 1024;
    for (double q_us : {0.5, 2.0, 16.0}) {
        cfg.quantum = us(q_us);
        const ChaseResult r = run_chase(cfg);
        EXPECT_LT(r.avg_latency_ns, CacheLatencies{}.l1_hit * 1.2)
            << "quantum " << q_us << "us";
    }
}

TEST(Chase, MidSizeArraysSufferAtSmallQuanta)
{
    // Figure 13's key contrast at 8-32KB arrays: TLS-16us mostly hits L1,
    // TLS-2us misses to L2 once arrays exceed 8KB.
    ChaseConfig cfg;
    cfg.array_bytes = 16 * 1024;
    cfg.quantum = us(16);
    const ChaseResult big_q = run_chase(cfg);
    cfg.quantum = us(2);
    const ChaseResult small_q = run_chase(cfg);
    EXPECT_GT(small_q.avg_latency_ns, 1.5 * big_q.avg_latency_ns)
        << "big=" << big_q.avg_latency_ns
        << " small=" << small_q.avg_latency_ns;
}

TEST(Chase, TinyQuantaNoWorseThanSmallQuanta)
{
    // Figure 13: once quanta are small enough, shrinking further does not
    // degrade cache performance (TLS-0.5us ~ TLS-2us).
    ChaseConfig cfg;
    cfg.array_bytes = 16 * 1024;
    cfg.quantum = us(2);
    const ChaseResult q2 = run_chase(cfg);
    cfg.quantum = us(0.5);
    const ChaseResult q05 = run_chase(cfg);
    EXPECT_LT(q05.avg_latency_ns, 1.25 * q2.avg_latency_ns);
}

TEST(Chase, CentralizedWorseThanTwoLevel)
{
    // Figure 14: at 2us quanta, CT misses L2 from 16KB arrays
    // (16KB x 64 = 1MB) while TLS still fits (16KB x 4 = 64KB).
    ChaseConfig cfg;
    cfg.array_bytes = 16 * 1024;
    cfg.quantum = us(2);
    cfg.centralized = false;
    const ChaseResult tls = run_chase(cfg);
    cfg.centralized = true;
    const ChaseResult ct = run_chase(cfg);
    EXPECT_GT(ct.avg_latency_ns, 1.5 * tls.avg_latency_ns)
        << "tls=" << tls.avg_latency_ns << " ct=" << ct.avg_latency_ns;
    EXPECT_GT(ct.l2_miss_rate, tls.l2_miss_rate);
}

TEST(Chase, DeterministicForSeed)
{
    ChaseConfig cfg;
    cfg.array_bytes = 32 * 1024;
    const ChaseResult a = run_chase(cfg);
    const ChaseResult b = run_chase(cfg);
    EXPECT_DOUBLE_EQ(a.avg_latency_ns, b.avg_latency_ns);
}

} // namespace
} // namespace tq::cache
