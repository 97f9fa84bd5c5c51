/**
 * @file
 * Discrete-event model of a Caladan-style runtime (paper section 5.1):
 * FCFS run-to-completion on 16 cores, RSS-hash packet steering to
 * per-core queues, and work stealing from idle cores.
 *
 * Two I/O modes, matching the paper's evaluation:
 *  - IOKernel: a serial core moves every packet (110 ns each).
 *  - Directpath: no serial stage, but each request costs the worker
 *    150 ns of extra packet processing.
 * A steal attempt costs 90 ns and an idle core makes two before it
 * parks; a response costs the worker Overheads::response_cost. No
 * figure varies these, so they are constants of the model.
 */
#ifndef TQ_SIM_CALADAN_H
#define TQ_SIM_CALADAN_H

#include "common/dist.h"
#include "sim/metrics.h"

namespace tq::sim {

/** Configuration of one Caladan-style simulation run. */
struct CaladanConfig
{
    bool directpath = false; ///< I/O mode: directpath, else IOKernel

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
