/**
 * @file
 * The open-loop Poisson arrival process (paper section 5.1) shared by
 * the load generator and the simulators.
 *
 * It works in the nanosecond domain and is pull-based: the caller hands
 * in the previous arrival time and an Rng, and gets the next arrival
 * time back. Both `tq::net::run_open_loop` (which converts to cycles at
 * the send site) and `tq::sim::EngineCore` (which consumes SimNanos
 * directly) draw from it with the same interleave — the initial gap
 * first, then a service sample and the next gap per arrival — so a
 * seeded trace replays identically through the real runtime and the
 * simulator (tests/integration_test.cc arrival-parity suite).
 */
#ifndef TQ_COMMON_ARRIVAL_H
#define TQ_COMMON_ARRIVAL_H

#include "common/check.h"
#include "common/rng.h"

namespace tq {

/** Homogeneous Poisson arrivals: exponential inter-arrival gaps. */
class PoissonProcess
{
  public:
    /** @param rate_per_ns arrivals per nanosecond (> 0). */
    explicit PoissonProcess(double rate_per_ns)
        : mean_gap_ns_(1.0 / rate_per_ns)
    {
        TQ_CHECK(rate_per_ns > 0);
    }

    /**
     * Next arrival after @p from_ns: one exponential draw at the mean
     * gap from @p rng, value-for-value `from_ns +
     * rng.exponential(1.0 / rate_per_ns)`.
     */
    double next(double from_ns, Rng &rng) const
    {
        return from_ns + rng.exponential(mean_gap_ns_);
    }

  private:
    double mean_gap_ns_;
};

} // namespace tq

#endif // TQ_COMMON_ARRIVAL_H
