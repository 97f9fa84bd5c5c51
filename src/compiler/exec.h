/**
 * @file
 * Timing executor for (instrumented) mini-IR modules.
 *
 * Interprets a module against the CostModel, drawing variable load
 * latencies and branch outcomes from a seeded RNG, and emulates the
 * run-time behaviour of each instrumentation technique:
 *
 *  - TqClock probes read the (simulated) physical clock and yield when
 *    the quantum expired — timing error is the clock overshoot only.
 *  - CiCounter probes accumulate an instruction counter and yield when it
 *    crosses quantum/assumed-IPC — timing error includes the full
 *    cycle-to-instruction translation error (paper section 3.1).
 *  - CiCycles probes gate a clock check on the counter crossing.
 *  - TqLoopGuard probes charge their per-iteration gadget cost and invoke
 *    the clock check every `period` iterations.
 *
 * The executor reports probing overhead (probe cycles / real-work
 * cycles), yield-timing mean absolute error, and the longest observed
 * probe-free stretch — the empirical check of the placement invariant.
 */
#ifndef TQ_COMPILER_EXEC_H
#define TQ_COMPILER_EXEC_H

#include <cstdint>

#include "common/rng.h"
#include "compiler/cost_model.h"
#include "compiler/ir.h"

namespace tq::compiler {

/** Executor configuration. */
struct ExecConfig
{
    CostModel cost;

    /** Target quantum in cycles (e.g. 2us * 2.1 GHz = 4200). */
    double quantum_cycles = 4200;

    uint64_t seed = 1;
};

/** Measurements from one execution. */
struct ExecResult
{
    double total_cycles = 0;   ///< real work + instrumentation
    double probe_cycles = 0;   ///< instrumentation only
    uint64_t real_instrs = 0;  ///< non-probe instructions executed
    uint64_t probe_sites_hit = 0; ///< dynamic probe executions
    uint64_t yields = 0;

    /** Mean absolute error of yield timing vs the quantum, in cycles. */
    double yield_mae_cycles = 0;

    /** Longest probe-free stretch observed, in instructions. */
    uint64_t max_stretch_instrs = 0;

    /** Probing overhead: instrumentation cycles / real-work cycles. */
    double
    overhead() const
    {
        const double base = total_cycles - probe_cycles;
        return base > 0 ? probe_cycles / base : 0.0;
    }
};

/**
 * Execute @p m from its entry function and return measurements.
 * The module may be uninstrumented (no probes), in which case overhead
 * and yield stats are zero and total_cycles is the baseline runtime.
 */
ExecResult execute(const Module &m, const ExecConfig &cfg);

} // namespace tq::compiler

#endif // TQ_COMPILER_EXEC_H
