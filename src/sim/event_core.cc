#include "sim/event_core.h"

#include <algorithm>

namespace tq::sim {

EngineCore::EngineCore(const ServiceDist &dist, double rate, uint64_t seed,
                       SimNanos duration, bool stop_when_saturated)
    : dist_(dist),
      rate_(rate),
      duration_(duration),
      stop_when_saturated_(stop_when_saturated),
      arrival_(rate),
      rng_(seed),
      metrics_(dist.class_names(), kWarmup)
{
    TQ_CHECK(rate > 0);
    TQ_CHECK(duration > 0);
    events_.reserve(1024);
    jobs_.reserve(1024);
    // Expected completions of one stable run, used purely as an
    // allocation hint; capped so absurd rate*duration products do not
    // balloon memory up front.
    const double expect = rate * duration;
    metrics_.reserve(
        static_cast<size_t>(expect < 8e6 ? (expect > 0 ? expect : 0) : 8e6));
}

uint32_t
EngineCore::try_admit(double demand_scale)
{
    if (in_flight_ >= kMaxInFlight) {
        ++dropped_;
        saturated_ = true;
        return kNoJob;
    }
    const uint32_t idx = jobs_.alloc();
    Job &j = jobs_[idx];
    const ServiceSample s = dist_.sample(rng_);
    j.arrival = now_;
    j.demand = s.demand;
    j.remaining = s.demand * demand_scale;
    j.job_class = s.job_class;
    ++in_flight_;
    ++arrivals_;
    return idx;
}

void
EngineCore::complete(uint32_t idx, SimNanos finish)
{
    metrics_.record(jobs_[idx], finish);
    --in_flight_;
    jobs_.release(idx);
}

void
EngineCore::finalize(SimResult &result)
{
    result.offered_rate = rate_;
    result.duration = duration_;
    if (!backlog_checked_)
        check_backlog();
    result.saturated = saturated_ || in_flight_ > 0;
    result.dropped = dropped_;
    metrics_.finalize(result);
    result.throughput = static_cast<double>(result.completed) / duration_;
}

void
EngineCore::check_backlog()
{
    backlog_checked_ = true;
    const size_t limit =
        std::max<size_t>(1000, static_cast<size_t>(arrivals_ / 20));
    if (in_flight_ > limit)
        saturated_ = true;
}

} // namespace tq::sim
