#include "sim/metrics.h"

#include "common/check.h"

namespace tq::sim {

const ClassStats &
SimResult::by_class(const std::string &name) const
{
    for (const auto &c : classes)
        if (c.name == name)
            return c;
    tq::fatal("SimResult::by_class: unknown class name");
}

MetricsCollector::MetricsCollector(std::vector<std::string> class_names,
                                   double warmup_fraction)
    : names_(std::move(class_names)),
      sojourn_(names_.size(), PercentileTracker(warmup_fraction)),
      slowdown_(names_.size(), PercentileTracker(warmup_fraction)),
      all_slowdown_(warmup_fraction)
{
    TQ_CHECK(!names_.empty());
}

void
MetricsCollector::reserve(size_t expected_completions)
{
    all_slowdown_.reserve(expected_completions);
    // The class split is workload-dependent; an even split is a decent
    // hint and push_back growth absorbs any skew.
    const size_t per_class = expected_completions / names_.size() + 1;
    for (size_t c = 0; c < names_.size(); ++c) {
        sojourn_[c].reserve(per_class);
        slowdown_[c].reserve(per_class);
    }
}

void
MetricsCollector::record(const Job &job, SimNanos finish)
{
    TQ_CHECK(job.job_class >= 0 &&
             job.job_class < static_cast<int>(names_.size()));
    const SimNanos sojourn = finish - job.arrival;
    TQ_DCHECK(sojourn >= 0);
    const double slow = job.demand > 0 ? sojourn / job.demand : 1.0;
    sojourn_[static_cast<size_t>(job.job_class)].add(sojourn);
    slowdown_[static_cast<size_t>(job.job_class)].add(slow);
    all_slowdown_.add(slow);
    ++completed_;
}

void
MetricsCollector::finalize(SimResult &result)
{
    result.completed = completed_;
    result.classes.clear();
    static constexpr double kSojournQs[] = {0.999, 0.99};
    for (size_t c = 0; c < names_.size(); ++c) {
        ClassStats stats;
        stats.name = names_[c];
        stats.completed = sojourn_[c].count();
        const auto qs = sojourn_[c].quantiles(kSojournQs);
        stats.p999_sojourn = qs[0];
        stats.p99_sojourn = qs[1];
        stats.mean_sojourn = sojourn_[c].mean();
        stats.p999_slowdown = slowdown_[c].quantile(0.999);
        stats.mean_slowdown = slowdown_[c].mean();
        result.classes.push_back(std::move(stats));
    }
    result.overall_p999_slowdown = all_slowdown_.quantile(0.999);
    result.overall_mean_slowdown = all_slowdown_.mean();
}

} // namespace tq::sim
