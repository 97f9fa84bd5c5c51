/**
 * @file
 * Tail-latency percentile estimation.
 *
 * The paper reports 99.9th-percentile latency and slowdown. PercentileTracker
 * stores samples exactly (the experiments draw a few million samples at
 * most) and answers arbitrary quantiles via selection; it optionally
 * discards a warm-up prefix, matching the paper's methodology of dropping
 * the first 10% of samples (section 5.1). The warm-up fraction is fixed
 * per tracker: selection reorders only the samples behind the cut, so
 * every query discards the same earliest samples. (An add() after a
 * query moves the cut into reordered samples; callers query only after
 * their last add().)
 */
#ifndef TQ_COMMON_PERCENTILE_H
#define TQ_COMMON_PERCENTILE_H

#include <cstddef>
#include <span>
#include <vector>

namespace tq {

/** Exact quantile tracker over a stream of double-valued samples. */
class PercentileTracker
{
  public:
    /**
     * @param warmup_fraction fraction in [0, 1) of the earliest samples,
     *     in arrival order, that every query discards.
     */
    explicit PercentileTracker(double warmup_fraction = 0.0);

    /**
     * Pre-size the sample store for @p n expected samples. Purely an
     * allocation hint; simulations pass their expected completion count
     * to avoid the doubling-growth copies of a multi-million-sample run.
     */
    void reserve(size_t n) { samples_.reserve(n); }

    /** Record one sample. */
    void add(double value) { samples_.push_back(value); }

    /** @return number of recorded samples. */
    size_t count() const { return samples_.size(); }

    /** @return true if no samples were recorded. */
    bool empty() const { return samples_.empty(); }

    /**
     * @return the q-quantile (q in [0, 1]) of the recorded samples,
     * after discarding the warm-up prefix. Returns 0 when no samples
     * survive the warm-up cut.
     *
     * Non-const: selection reorders the retained suffix in place.
     */
    double quantile(double q);

    /**
     * Batch form of quantile(): returns the value at each q in @p qs,
     * in order (any order, repeats allowed). Selects the highest rank
     * over the retained suffix, then each lower rank only inside the
     * prefix in front of the previous one: k quantiles cost k O(n)
     * selections over shrinking ranges, not an O(n log n) sort. Values
     * are identical to calling quantile() per q (same nearest-rank
     * convention).
     */
    std::vector<double> quantiles(std::span<const double> qs);

    /** Arithmetic mean over the post-warm-up samples (0 when empty). */
    double mean() const;

    /** Largest recorded sample post warm-up (0 when empty). */
    double max() const;

    /** Drop all samples. */
    void clear() { samples_.clear(); }

  private:
    /** Index of the first sample behind the warm-up cut. */
    size_t warmup_index() const;

    double warmup_fraction_;
    std::vector<double> samples_;
};

} // namespace tq

#endif // TQ_COMMON_PERCENTILE_H
