/**
 * @file
 * Discrete-event simulator of *centralized* preemptive scheduling
 * (paper sections 2, 3.2): one dispatcher owns a global run queue and
 * grants quanta to worker cores.
 *
 * Two uses:
 *  - Overheads::ideal() + a quantum sweep reproduces the motivation
 *    study (Figures 1 and 2) and the CT baseline of Figure 4.
 *  - Overheads::shinjuku_default() models Shinjuku: ~1us interrupt cost
 *    per preemption and a serial dispatcher charged per scheduling
 *    operation, which saturates as quanta shrink (Figure 16, section 5.6).
 *
 * Every slice costs the dispatcher one serial operation (requeue +
 * grant), so dispatcher load grows inversely with the quantum — the
 * scalability wall of centralized scheduling the paper identifies.
 */
#ifndef TQ_SIM_CENTRAL_H
#define TQ_SIM_CENTRAL_H

#include "common/dist.h"
#include "sim/metrics.h"
#include "sim/overheads.h"

namespace tq::sim {

/** Configuration of one centralized-cluster simulation run. */
struct CentralConfig
{
    int num_cores = 16;
    SimNanos quantum = us(5);
    /** switch_overhead is charged only when a slice is actually
     *  preempted (the job outlives its quantum), as in interrupt-driven
     *  systems: completions do not need an interrupt. */
    Overheads overheads = Overheads::ideal();

    SimNanos duration = ms(200);
    uint64_t seed = 1;

    /** Stop once saturation is detected; see TwoLevelConfig for the
     *  contract (the `saturated` flag is unaffected). */
    bool stop_when_saturated = false;
};

/** Run one centralized simulation (global PS queue over all cores). */
SimResult run_central(const CentralConfig &cfg, const ServiceDist &dist,
                      double rate);

} // namespace tq::sim

#endif // TQ_SIM_CENTRAL_H
