/**
 * @file
 * Job representation shared by the cluster simulators.
 */
#ifndef TQ_SIM_JOB_H
#define TQ_SIM_JOB_H

#include <cstdint>

#include "common/units.h"

namespace tq::sim {

/** One request flowing through a simulated cluster. */
struct Job
{
    SimNanos arrival = 0;     ///< time the request reached the system
    SimNanos demand = 0;      ///< total service requirement
    SimNanos remaining = 0;   ///< service still owed
    int job_class = 0;        ///< index into the workload's class names
};

} // namespace tq::sim

#endif // TQ_SIM_JOB_H
