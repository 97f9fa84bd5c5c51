#include "cache/chase.h"

#include <numeric>
#include <vector>

#include "cache/cache_sim.h"
#include "common/check.h"
#include "common/rng.h"

namespace tq::cache {

namespace {

/** Concurrent jobs per core (J of paper Table 2). */
constexpr int kJobsPerCore = 4;

/** Cluster size, the CT rotation width (C of paper Table 2). */
constexpr int kCores = 16;

/** Assumed per-access time used to size X = quantum / kEstAccessNs,
 *  matching the paper's "X is set to match the target quantum". */
constexpr double kEstAccessNs = 10.0;

/** Accesses that warm the caches, then accesses measured, per run. */
constexpr uint64_t kWarmupAccesses = 100'000;
constexpr uint64_t kMeasuredAccesses = 400'000;

/** Seed of the visit-order shuffles and of line_sampler's draws. */
constexpr uint64_t kSeed = 1;

/**
 * Generates the interleaved pointer-chase access stream one address at a
 * time: rotate over the arrays, X accesses per quantum, each array
 * resuming its saved position in its fixed random visit order.
 */
class ChaseStream
{
  public:
    explicit ChaseStream(const ChaseConfig &cfg) : cfg_(cfg), rng_(kSeed)
    {
        TQ_CHECK(cfg.array_bytes >= 64);
        const size_t lines = cfg.array_bytes / 64;
        // Arrays this core rotates over.
        const int n = cfg.centralized ? kCores * kJobsPerCore : kJobsPerCore;
        orders_.resize(static_cast<size_t>(n));
        positions_.assign(static_cast<size_t>(n), 0);
        for (int a = 0; a < n; ++a) {
            auto &order = orders_[static_cast<size_t>(a)];
            order.resize(lines);
            std::iota(order.begin(), order.end(), 0u);
            // Fisher-Yates with the shared rng: fixed random iteration
            // order per array (paper: "fix a random element iteration
            // order").
            for (size_t i = lines - 1; i > 0; --i) {
                const size_t j = rng_.below(i + 1);
                std::swap(order[i], order[j]);
            }
        }
        const double x = cfg.quantum / kEstAccessNs;
        per_quantum_ = x < 1 ? 1 : static_cast<uint64_t>(x);
    }

    /** Next address of the stream. */
    uint64_t
    next()
    {
        if (left_in_quantum_ == 0) {
            current_ = (current_ + 1) % orders_.size();
            left_in_quantum_ = per_quantum_;
        }
        --left_in_quantum_;
        auto &order = orders_[current_];
        size_t &pos = positions_[current_];
        const uint64_t base =
            (static_cast<uint64_t>(current_) + 1) << 24; // 16MB apart
        // Skewed mixes draw the visited line per access; the default is
        // the paper's fixed-iteration-order chase (the ctor's shuffles
        // are the rng's only draws then, so runs stay byte-identical).
        uint64_t line;
        if (cfg_.line_sampler) {
            line = cfg_.line_sampler(rng_) % order.size();
        } else {
            line = order[pos];
            pos = (pos + 1) % order.size();
        }
        return base + line * 64;
    }

  private:
    const ChaseConfig &cfg_;
    Rng rng_;
    std::vector<std::vector<uint32_t>> orders_;
    std::vector<size_t> positions_;
    size_t current_ = 0;
    uint64_t per_quantum_ = 0;
    uint64_t left_in_quantum_ = 0;
};

} // namespace

ChaseResult
run_chase(const ChaseConfig &cfg)
{
    ChaseStream stream(cfg);
    CacheHierarchy caches;

    for (uint64_t i = 0; i < kWarmupAccesses; ++i)
        caches.access(stream.next());

    const uint64_t l1_miss0 = caches.l1().misses();
    const uint64_t l2_miss0 = caches.l2().misses();
    double total_ns = 0;
    for (uint64_t i = 0; i < kMeasuredAccesses; ++i)
        total_ns += caches.access(stream.next());

    ChaseResult r;
    r.accesses = kMeasuredAccesses;
    r.avg_latency_ns = total_ns / static_cast<double>(kMeasuredAccesses);
    r.l1_miss_rate =
        static_cast<double>(caches.l1().misses() - l1_miss0) /
        static_cast<double>(kMeasuredAccesses);
    r.l2_miss_rate =
        static_cast<double>(caches.l2().misses() - l2_miss0) /
        static_cast<double>(kMeasuredAccesses);
    return r;
}

ReuseAnalyzer
analyze_chase_reuse(const ChaseConfig &cfg, uint64_t max_accesses)
{
    ChaseStream stream(cfg);
    ReuseAnalyzer analyzer;
    for (uint64_t i = 0; i < max_accesses; ++i)
        analyzer.access(stream.next());
    return analyzer;
}

} // namespace tq::cache
