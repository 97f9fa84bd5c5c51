/**
 * @file
 * Configuration of the real TQ runtime and its built-in policy variants
 * (the TQ-RAND / TQ-POWER-TWO / TQ-FCFS variants of paper section 5.4).
 */
#ifndef TQ_RUNTIME_CONFIG_H
#define TQ_RUNTIME_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/dispatch_view.h"
#include "common/sched_core.h"

namespace tq::runtime {

/** Per-worker quantum scheduling policy. */
enum class WorkPolicy {
    ProcessorSharing, ///< forced multitasking in `quantum_us` slices
    Fcfs,             ///< run to completion (probes never fire)
    Las,              ///< least-attained-service first: resume the task
                      ///< with the fewest serviced quanta (dynamic
                      ///< policies are possible because probes decide
                      ///< yields at run time, paper section 3.1)
};

/** Runtime configuration. */
struct RuntimeConfig
{
    int num_workers = 2;      ///< worker scheduler threads
    double quantum_us = 2.0;  ///< target quantum (PS/LAS policies)

    /**
     * Per-class quanta keyed by Request::job_class (DESIGN.md §4i).
     * Empty — the default — is the fixed quantum: one scheduler ledger
     * slot with deficit and guard off, so every grant arms quantum_us.
     * When non-empty, class c is admitted with class_quantum_us[c]
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

    /**
     * Adaptive quantum controller (DESIGN.md §4i): when true — and the
     * build has telemetry — Runtime::adapt_quanta() digests a telemetry
     * snapshot through runtime/quantum_controller.h and republishes the
     * per-class quantum table; workers pick the new budgets up at their
     * next admission. Enables per-class mode even with an empty
     * class_quantum_us (all classes start at quantum_us). Under
     * -DTQ_TELEMETRY=OFF the controller is compiled out and the table
     * statically keeps its configured values (adapt_quanta() == false).
     */
    bool adaptive_quantum = false;

    double quantum_slo_slowdown = 5.0; ///< controller target: SLO-class
                                       ///< p99 sojourn / mean service
    double quantum_adapt_gain = 0.25;  ///< multiplicative step per tick
    double quantum_min_us = 0.5;       ///< controller clamp floor
    double quantum_max_us = 16.0;      ///< controller clamp ceiling

    /**
     * Dispatcher shards (DESIGN.md §4g). 1 — the default — is the
     * paper's single-dispatcher runtime, byte-identical to the
     * pre-sharding code path. N > 1 divides the workers into N
     * contiguous disjoint subsets (common/shard.h shard_span), each
     * owned by its own dispatcher thread with its own RX queue and
     * packed DispatchView; submit() steers each request with the
     * front-tier JSQ over the shards' advertised load lines. Must be
     * in [1, num_workers].
     */
    int num_dispatchers = 1;

    /**
     * Bounded inter-shard work stealing (num_dispatchers > 1 only).
     * A shard whose RX is empty and whose workers are idle steals up
     * to this many queued requests from the most-loaded sibling's RX
     * queue in one attempt (the RX queues are MPMC, so a cross-shard
     * pop is exactly one atomic claim per request — a stolen job is
     * popped once, by exactly one shard). 0 disables stealing: shards
     * are then statically partitioned and a hot shard can strand
     * capacity (cf. DESIGN.md §4g on why work conservation matters at
     * microsecond scale).
     */
    size_t steal_max_batch = 8;

    /**
     * Steal trigger: only shards advertising at least this much load
     * (RX backlog + worker queue sum, see runtime/shard_front.h) are
     * eligible victims. Keeps idle-pair shards from ping-ponging
     * speculative pops at each other.
     */
    uint32_t steal_min_load = 2;

    /**
     * Sharded-mode dispatch backpressure (num_dispatchers > 1 only):
     * a shard stops forwarding RX -> worker rings once its outstanding
     * (assigned-but-unfinished) jobs reach shard_window per owned
     * worker, keeping the excess in its MPMC RX. Without the window a
     * shard runs arbitrarily far ahead of its workers and buries the
     * backlog in private SPSC rings where siblings cannot steal it —
     * stealing only rebalances work that is still in an RX queue. 0
     * disables the window (classic run-ahead). Ignored at
     * num_dispatchers == 1, which forwards as fast as the rings accept,
     * exactly as the pre-sharding dispatcher did.
     */
    size_t shard_window = 64;

    /** Task coroutines per worker. The paper observes stable performance
     *  at four or more and uses eight (section 5.1). */
    int tasks_per_worker = 8;

    size_t ring_capacity = 1 << 14; ///< per-ring request/response slots
    DispatchPolicy dispatch = DispatchPolicy::JsqMsq; ///< load balancer
    WorkPolicy work = WorkPolicy::ProcessorSharing;   ///< per-core policy

    /** Dispatch RNG seed: the JsqRandom, Random and PowerOfTwo picks
     *  draw from it (shard i seeds with seed + i). */
    uint64_t seed = 1;

    /**
     * stop()'s graceful-drain budget in seconds: how long stop() lets
     * queued and in-flight jobs finish before escalating to a forced
     * stop that abandons leftovers (counted; see DESIGN.md "Lifecycle &
     * shutdown"). drain() takes its own deadline and ignores this.
     */
    double stop_deadline_sec = 1.0;

    /**
     * Bounded-backpressure overflow policy for the dispatcher->worker
     * and worker->TX ring pushes. 0 (default): spin until the ring
     * drains or a forced stop begins — never drop while running. N > 0:
     * after N yield-spins the push gives up and the job/response is
     * dropped and counted (abandoned_jobs / dropped_responses).
     */
    size_t push_spin_limit = 0;

    /**
     * Dispatcher RX batch size: the dispatcher pops up to this many
     * requests per poll and refreshes its JSQ view of the workers'
     * counter lines once per batch instead of once per request, so the
     * per-request dispatch work inside a batch touches only
     * dispatcher-local state (DESIGN.md "Batched hot path"). 1 restores
     * per-request refresh exactly. Under light load batches are mostly
     * size 1 and behaviour is identical to the unbatched path; the
     * amortization engages precisely when the dispatcher is the
     * bottleneck and the RX queue has depth.
     */
    size_t dispatch_batch = 32;

    /** Per-thread trace-ring capacity in events (telemetry builds).
     *  Overflow drops events and counts them; it never blocks a worker
     *  (see OBSERVABILITY.md). */
    size_t telemetry_trace_capacity = 1 << 14;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_CONFIG_H
