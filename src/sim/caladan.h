/**
 * @file
 * Discrete-event model of a Caladan-style runtime (paper section 5.1):
 * FCFS run-to-completion, RSS-hash packet steering to per-core queues,
 * and work stealing from idle cores.
 *
 * Two I/O modes, matching the paper's evaluation:
 *  - IOKernel: a serial core moves every packet (iokernel_cost each).
 *  - Directpath: no serial stage, but each request costs the worker
 *    extra packet-processing time (directpath_cost).
 */
#ifndef TQ_SIM_CALADAN_H
#define TQ_SIM_CALADAN_H

#include "common/arrival.h"
#include "common/dist.h"
#include "sim/metrics.h"
#include "sim/overheads.h"

namespace tq::sim {

/** Configuration of one Caladan-style simulation run. */
struct CaladanConfig
{
    int num_cores = 16;
    bool directpath = false;
    Overheads overheads = Overheads::tq_default();

    /** Number of random victims an idle core probes before parking. */
    int steal_attempts = 2;

    /** Arrival process (default Poisson, byte-identical to the
     *  historical stream) — same contract as TwoLevelConfig::arrival,
     *  so bursty (`--arrival=onoff`) comparisons keep all three systems
     *  on the same arrival sequence. */
    ArrivalSpec arrival;

    SimNanos duration = ms(200);
    uint64_t seed = 1;

    /** Stop once saturation is detected; see TwoLevelConfig for the
     *  contract (the `saturated` flag is unaffected). */
    bool stop_when_saturated = false;
};

/** Run one Caladan-style simulation. */
SimResult run_caladan(const CaladanConfig &cfg, const ServiceDist &dist,
                      double rate);

} // namespace tq::sim

#endif // TQ_SIM_CALADAN_H
