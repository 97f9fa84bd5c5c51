/**
 * @file
 * What one benchmark run reports, and the order statistics behind it.
 *
 * Every value is kept with the number of samples it was computed from,
 * so the runner can print "value unit (n=...)" and a reader can judge
 * how far a percentile is from the edge of its sample.
 */
#ifndef TQBENCH_RESULT_H
#define TQBENCH_RESULT_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace tqbench {

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
};

/** Outcome of one workload run (or of one part of it). */
struct Result
{
    uint64_t attempted = 0; ///< requests sent / grid points simulated
    uint64_t failed = 0;    ///< refused, timed out, duplicated or wrong
    std::vector<std::string> errors; ///< why a check failed (first few)
    std::vector<Metric> metrics;     ///< end-to-end (gated)
    std::vector<Metric> layers;      ///< per-layer rows (traced runs)
    std::vector<Metric> diag;        ///< printed next to them, never gated

    void
    metric(const std::string &name, double value, const std::string &unit,
           uint64_t samples)
    {
        metrics.push_back({name, value, unit, samples});
    }

    void
    layer(const std::string &name, double value, const std::string &unit,
          uint64_t samples)
    {
        layers.push_back({name, value, unit, samples});
    }

    void
    diagnostic(const std::string &name, double value,
               const std::string &unit, uint64_t samples)
    {
        diag.push_back({name, value, unit, samples});
    }

    /** Fold another part's request counts and failed checks into this
     *  one (its metrics stay with the part). */
    void
    absorb(const Result &part)
    {
        attempted += part.attempted;
        failed += part.failed;
        for (const std::string &e : part.errors)
            if (errors.size() < 8)
                errors.push_back(e);
    }

    /** Record one failed check; keeps the first few reasons. */
    void
    fail(const std::string &why, uint64_t count = 1)
    {
        failed += count;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    /** Find a metric by name (nullptr when absent). */
    const Metric *
    find(const std::string &name) const
    {
        for (const Metric &m : metrics)
            if (m.name == name)
                return &m;
        return nullptr;
    }
};

/**
 * Nearest-rank quantile (rank floor(q*n), clamped to the maximum), the
 * rule of tq::PercentileTracker::quantile. Reorders @p v; 0 when empty.
 *
 * Kept here rather than using PercentileTracker because the tracker
 * stores doubles: the per-request latency and span arrays hold millions
 * of samples, stored as float, and copying them into double trackers
 * would double the benchmark's own share of the peak_rss_mb it reports.
 */
template <typename T>
double
quantile(std::vector<T> &v, double q)
{
    if (v.empty())
        return 0;
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size())
        rank = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                     v.end());
    return static_cast<double>(v[rank]);
}

/** Median by value (copy). */
template <typename T>
double
median(std::vector<T> v)
{
    return quantile(v, 0.5);
}

/** Largest element; 0 when empty. */
template <typename T>
double
maximum(const std::vector<T> &v)
{
    return v.empty() ? 0 : static_cast<double>(*std::max_element(v.begin(),
                                                                v.end()));
}

} // namespace tqbench

#endif // TQBENCH_RESULT_H
