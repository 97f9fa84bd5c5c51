/**
 * @file
 * Configuration of the real TQ runtime. Its dispatcher always balances
 * by JSQ with Maximum-Serviced-Quanta ties (paper section 3.2); the
 * TQ-RAND and TQ-POWER-TWO variants of section 5.4 live in the
 * simulator (sim::TwoLevelConfig::lb). The TQ-FCFS variant is
 * WorkPolicy::Fcfs.
 */
#ifndef TQ_RUNTIME_CONFIG_H
#define TQ_RUNTIME_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sched_core.h"

namespace tq::runtime {

/** Per-worker quantum scheduling policy: the one enum both engines
 *  share (common/sched_core.h). */
using WorkPolicy = sched::Policy;

/** Task coroutines per worker. The paper observes stable performance at
 *  four or more and uses eight (section 5.1). */
inline constexpr int kTasksPerWorker = 8;

/** stop()'s graceful-drain budget in seconds: how long queued and
 *  in-flight jobs may finish before stop() escalates to a forced stop
 *  that abandons leftovers (counted; DESIGN.md "Lifecycle & shutdown").
 *  A caller that wants another deadline calls drain(deadline_sec). */
inline constexpr double kStopDeadlineSec = 1.0;

/**
 * Dispatcher RX batch size: the dispatcher pops up to this many
 * requests per poll and refreshes its JSQ view of the workers' counter
 * lines once per batch instead of once per request, so the per-request
 * dispatch work inside a batch touches only dispatcher-local state
 * (DESIGN.md "Batched hot path"). Under light load batches are mostly
 * size 1 and behaviour is identical to a per-request refresh; the
 * amortization engages precisely when the dispatcher is the bottleneck
 * and the RX queue has depth.
 */
inline constexpr size_t kDispatchBatch = 32;

/** Per-thread trace-ring capacity in events (telemetry builds).
 *  Overflow drops events and counts them; it never blocks a worker
 *  (see OBSERVABILITY.md). */
inline constexpr size_t kTelemetryTraceCapacity = 1 << 14;

/** Runtime configuration. */
struct RuntimeConfig
{
    int num_workers = 2;      ///< worker scheduler threads
    double quantum_us = 2.0;  ///< target quantum (PS/LAS policies)

    /**
     * Per-class quanta keyed by Request::job_class (DESIGN.md §4i).
     * Empty — the default — is the fixed quantum: one scheduler ledger
     * slot with deficit and guard off, so every grant arms quantum_us.
     * When non-empty, class c is granted class_quantum_us[c]
     * (classes beyond the table, or beyond sched::kMaxClasses = 8, fall
     * back to quantum_us / the last slot) and gets its own ledger slot
     * with the deficit clamp and starvation guard below. Ignored under
     * WorkPolicy::Fcfs, where probes never fire. The simulator's
     * TwoLevelConfig::class_quantum runs the same scheduler.
     */
    std::vector<double> class_quantum_us;

    /**
     * Per-class deficit clamp in microseconds (per-class mode only).
     * The effective budget at each grant is quantum + deficit, floored
     * at quantum/4 + 1 cycles so a debt-laden class always makes real
     * progress. After every slice the class's deficit becomes
     * `granted - used` cycles (Deficit Round Robin), with granted that
     * effective budget, clamped to +-deficit_clamp_us: early completion
     * carries the leftover as credit, and a probe overrun carries only
     * that slice's overshoot as debt into the next grant.
     */
    double deficit_clamp_us = sched::kDefaultDeficitClampUs;

    /**
     * Starvation guard (per-class mode only): after a class with
     * runnable tasks has been passed over this many consecutive grants,
     * the next grant force-promotes its best task ahead of the policy
     * order (the LAS heap minimum or the PS front would otherwise keep
     * winning forever under a flood of fresher work). 0 disables the
     * guard. Promotions are counted (Worker::starvation_promotions()).
     */
    uint32_t starvation_promote_after =
        sched::kDefaultStarvationPromoteAfter;

    size_t ring_capacity = 1 << 14; ///< per-ring request/response slots
    WorkPolicy work = WorkPolicy::ProcessorSharing; ///< per-core policy

    /** Read by nothing: the dispatcher's JSQ-MSQ pick draws no
     *  randomness. Kept only because the benchmark's runtime workloads
     *  still assign it. */
    uint64_t seed = 1;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_CONFIG_H
