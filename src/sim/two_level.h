/**
 * @file
 * Discrete-event simulator of TQ's two-level scheduling cluster
 * (paper section 3.2): a dispatcher doing only load balancing feeding
 * per-core quantum schedulers.
 *
 * The dispatcher is a serial resource (dispatch_cost per job) applying a
 * blind load-balancing policy — JSQ with MSQ or random tie-breaking,
 * uniform random, or power-of-two choices — through the runtime's own
 * pick: each dispatcher owns a common/dispatch_view.h view of its cores,
 * and each core writes its own lane whenever its completion count or
 * quanta sum changes, so every pick reads current counters. Each worker
 * core schedules its admitted jobs with processor sharing in
 * `quantum`-sized slices (switch_overhead charged per preemption) or
 * FCFS run-to-completion.
 * Responses leave directly from the worker (response_cost), matching the
 * paper's datapath.
 *
 * The per-core scheduler is common/sched_core.h, the code the runtime
 * worker runs. This simulator also models the TQ variants of the breakdown study
 * (section 5.4): per-class quantum overrides (TQ-TIMING), alternative
 * dispatch policies (TQ-RAND, TQ-POWER-TWO) and FCFS cores (TQ-FCFS);
 * TQ-IC / TQ-SLOW-YIELD are expressed through `switch_overhead` /
 * `probe_overhead_frac`.
 */
#ifndef TQ_SIM_TWO_LEVEL_H
#define TQ_SIM_TWO_LEVEL_H

#include "common/dispatch_view.h"
#include "common/dist.h"
#include "common/sched_core.h"
#include "sim/metrics.h"
#include "sim/overheads.h"

namespace tq::sim {

/** Per-core quantum scheduling policy: the one enum both engines
 *  share (common/sched_core.h). */
using CorePolicy = sched::Policy;

/** Configuration of one two-level simulation run. */
struct TwoLevelConfig
{
    int num_cores = 16;

    /**
     * Dispatcher shards. The paper's TQ uses one (~14 Mrps); section 6
     * suggests scaling out with multiple load-balancing dispatchers.
     * With N > 1 the simulator models that scale-out (DESIGN.md §4g;
     * the runtime runs one dispatcher): the cores split into N
     * contiguous disjoint subsets (common/shard.h shard_span) and each
     * arrival is steered
     * by a front-tier rotated JSQ over per-shard load estimates
     * (front_tier_cost, charged as pure latency — submitters are
     * parallel), then crosses its shard's serial dispatcher
     * (dispatch_cost) whose per-core pick ranges over the owned subset
     * only. 1 keeps the historical single-dispatcher model,
     * byte-identical to the pre-sharding simulator. Must be in
     * [1, num_cores].
     */
    int num_dispatchers = 1;
    SimNanos quantum = us(2);
    CorePolicy core_policy = CorePolicy::ProcessorSharing;
    DispatchPolicy lb = DispatchPolicy::JsqMsq; ///< dispatcher pick
    Overheads overheads = Overheads::tq_default();

    /**
     * Per-class quanta (TQ-TIMING variant): when non-empty (one entry
     * per workload class, at most 8), class c is scheduled with
     * class_quantum[c] instead of `quantum` and gets its own slot in the
     * shared per-core scheduler (DESIGN.md §4i). Empty — or FCFS cores
     * — is the fixed quantum: one slot, no deficit, no guard.
     */
    std::vector<SimNanos> class_quantum;

    /**
     * Per-class deficit clamp in ns (class_quantum set, cores not
     * FCFS): after each slice a core sets the class's deficit to the
     * effective budget minus the time used (Deficit Round Robin),
     * clamped to ±deficit_clamp, and grants class c
     * max(base/4 + 1, base + deficit[c]). Slices never overrun here (no
     * probe latency), so the deficit is the last slice's early-completion
     * leftover, or 0 after a preemption. 0 (the default) carries no
     * deficit.
     */
    SimNanos deficit_clamp = 0;

    /**
     * Starvation guard (class_quantum set, cores not FCFS): after a
     * runnable class has been passed over for this many consecutive
     * grants on a core, its job with the fewest serviced quanta (PS:
     * its first queued job) is promoted ahead of the PS/LAS pick. 0
     * (default) disables the guard.
     */
    uint64_t starvation_promote_after = 0;

    /**
     * Fractional slowdown of job execution due to probing (TQ-IC
     * variant): a job with demand d occupies the core for d * (1 +
     * probe_overhead_frac).
     */
    double probe_overhead_frac = 0.0;

    /**
     * When non-null, every arrival draw (including the final
     * past-duration overshoot) is appended here — the load generator
     * records the same sequence, and the arrival-parity tests compare
     * the two element for element. Not sweep-safe: points would share
     * the vector, so only set it for single runs.
     */
    std::vector<double> *arrival_trace = nullptr;

    SimNanos duration = ms(200); ///< arrival-generation window
    uint64_t seed = 1;

    /**
     * End the run as soon as saturation is detected (in-flight cap hit,
     * or a diverged backlog at the end of the arrival window) instead of
     * draining the queues. The result's `saturated` flag is unaffected —
     * any run this cuts short would have reported saturated anyway — but
     * its latency percentiles are truncated, so only enable this where
     * saturated results are consumed as a boolean: SLO bisections and
     * capacity tables that print "sat". Keep it off when metrics of
     * overloaded runs matter (e.g. Figure 16's effective quantum).
     */
    bool stop_when_saturated = false;
};

/**
 * Run one simulation.
 * @param dist workload service-time distribution (paper Table 1).
 * @param rate offered load in requests per nanosecond (see tq::mrps()).
 */
SimResult run_two_level(const TwoLevelConfig &cfg, const ServiceDist &dist,
                        double rate);

} // namespace tq::sim

#endif // TQ_SIM_TWO_LEVEL_H
