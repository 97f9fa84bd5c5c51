/**
 * @file
 * Result collection for cluster simulations.
 *
 * Tracks per-class sojourn time and slowdown with the paper's
 * methodology: 99.9th percentiles, first 10% of samples discarded as
 * warm-up (section 5.1). Slowdown is server-side time over the job's
 * inherent service time (section 2).
 */
#ifndef TQ_SIM_METRICS_H
#define TQ_SIM_METRICS_H

#include <string>
#include <vector>

#include "common/percentile.h"
#include "common/units.h"
#include "sim/job.h"

namespace tq::sim {

/** Aggregated statistics for one job class. */
struct ClassStats
{
    std::string name;
    uint64_t completed = 0;
    SimNanos p999_sojourn = 0;   ///< 99.9th percentile sojourn time
    SimNanos p99_sojourn = 0;
    SimNanos mean_sojourn = 0;
    double p999_slowdown = 0;    ///< 99.9th percentile slowdown
    double mean_slowdown = 0;
};

/** Outcome of one simulated run at one offered load. */
struct SimResult
{
    double offered_rate = 0;      ///< requests per nanosecond
    double throughput = 0;        ///< completions per nanosecond
    uint64_t completed = 0;
    uint64_t dropped = 0;         ///< admission failures (saturation)
    bool saturated = false;       ///< in-flight cap hit / queues diverged
    SimNanos duration = 0;

    std::vector<ClassStats> classes;
    double overall_p999_slowdown = 0;
    double overall_mean_slowdown = 0;

    /** Mean interval between quantum grants on busy cores (Figure 16). */
    SimNanos avg_effective_quantum = 0;

    /**
     * Per-class mean grant interval, indexed like `classes` (empty when
     * the run tracked no classes). With per-class quanta this exposes
     * the effective quantum each class actually attained — the quantity
     * the runtime-vs-sim parity test compares (DESIGN.md §4i).
     */
    std::vector<SimNanos> class_effective_quantum;

    /** Times the starvation guard force-promoted a passed-over class
     *  (0 unless TwoLevelConfig::starvation_promote_after is set). */
    uint64_t starvation_promotions = 0;

    /** Stats for the class named @p name (fatal if absent). */
    const ClassStats &by_class(const std::string &name) const;
};

/** Accumulates completions during a run and finalizes into a SimResult. */
class MetricsCollector
{
  public:
    /**
     * @param class_names one tracker per workload class.
     * @param warmup_fraction fraction of earliest samples to discard.
     */
    explicit MetricsCollector(std::vector<std::string> class_names,
                              double warmup_fraction = 0.1);

    /**
     * Pre-size the sample stores for @p expected_completions total
     * completions (allocation hint; see PercentileTracker::reserve).
     */
    void reserve(size_t expected_completions);

    /** Record a completion at time @p finish. */
    void record(const Job &job, SimNanos finish);

    uint64_t completed() const { return completed_; }

    /** Finalize percentiles into @p result (classes, overall slowdown). */
    void finalize(SimResult &result);

  private:
    std::vector<std::string> names_;
    std::vector<PercentileTracker> sojourn_;
    std::vector<PercentileTracker> slowdown_;
    PercentileTracker all_slowdown_;
    uint64_t completed_ = 0;
};

} // namespace tq::sim

#endif // TQ_SIM_METRICS_H
