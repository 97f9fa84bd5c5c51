/**
 * @file
 * Cycle-accurate metrics: padded per-thread counters and concurrently
 * readable log-bucketed histograms, aggregated by a MetricsRegistry.
 *
 * Layout follows the dispatcher/worker counter contract of the paper
 * (section 4): every writer owns its own cache line and readers only
 * load. Nothing on the hot path takes a lock or issues any atomic
 * read-modify-write: each counter has one writer, which bumps it with
 * owner_add() (conc/cacheline.h), a plain load and store. A relaxed
 * fetch_add would still be a lock-prefixed full barrier on x86.
 * Snapshots are therefore safe *while the runtime is running*: they are
 * per-counter linearizable (each value is a single relaxed load) but not
 * a cross-counter atomic cut — totals observed across counters may be
 * skewed by in-flight work. See OBSERVABILITY.md for the full contract.
 *
 * Every histogram is a common/histogram.h Histogram: raw cycle (or
 * count) values in log2 buckets beside an exact running sum, so a
 * snapshot's StageStats carry an exact mean and a bucket-resolution p99.
 */
#ifndef TQ_TELEMETRY_METRICS_H
#define TQ_TELEMETRY_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cycles.h"
#include "common/histogram.h"
#include "common/sched_core.h"
#include "conc/cacheline.h"
#include "telemetry/trace_ring.h"

namespace tq::telemetry {

/**
 * One worker thread's event counters, alone on their cache line.
 *
 * Single writer (the owning worker); snapshot readers only load. Three
 * counters fit one line with 40 bytes of stated pad — room for five more
 * before the static_assert below forces a second (still worker-owned)
 * line. Completions and probe yields are not counted here: the worker's
 * stats line (runtime/worker_stats.h) already counts them in every
 * build. Each worker's WorkerTelemetry is a separate heap allocation, so
 * distinct workers' counters can never share a line regardless of
 * allocator behaviour (checked in tests/layout_test.cc).
 */
struct alignas(kCacheLineSize) WorkerCounters
{
    std::atomic<uint64_t> admitted{0};        ///< jobs pulled off the
                                              ///< dispatch ring
    std::atomic<uint64_t> quanta{0};          ///< task slices resumed
    std::atomic<uint64_t> guard_deferrals{0}; ///< expiries deferred by a
                                              ///< PreemptGuard

    /** Pad out the line so neighbouring workers never false-share. */
    char pad[kCacheLineSize - 3 * sizeof(std::atomic<uint64_t>)];
};

static_assert(sizeof(WorkerCounters) == kCacheLineSize &&
                  alignof(WorkerCounters) == kCacheLineSize,
              "one cache line per worker");

/** Everything one worker thread writes: counters, stage histograms,
 *  and its private trace ring. */
class WorkerTelemetry
{
  public:
    /** @param worker worker id (trace tid). @param trace_capacity ring
     *  size in events. */
    WorkerTelemetry(int worker, size_t trace_capacity)
        : trace(static_cast<uint8_t>(worker), trace_capacity)
    {
    }

    WorkerCounters counters;  ///< event counters (writer: the worker)
    Histogram queue_cycles;   ///< dispatch -> first quantum start
    Histogram preempt_cycles; ///< per-preemption overshoot past the
                              ///< armed deadline (incl. switch-out)

    // Per-class quantum/deficit instruments (DESIGN.md §4i). Recorded
    // only while the per-class scheduler is active (non-empty
    // class_quantum_us, cores not FCFS); all-zero otherwise, so the
    // snapshot's per_class block stays empty on the fixed-quantum path.
    // Same single-writer layout as everything above: only the owning
    // worker stores, snapshot readers only load.
    std::atomic<uint64_t> class_grants[sched::kMaxClasses] = {};
    /** Sum of armed cycle budgets per class: mean granted budget =
     *  granted_cycles / grants, the runtime-side effective quantum the
     *  sim-parity test compares orderings against. */
    std::atomic<uint64_t> class_granted_cycles[sched::kMaxClasses] = {};
    /** Last settled deficit per class (gauge, signed cycles). */
    std::atomic<int64_t> class_deficit[sched::kMaxClasses] = {};

    // Every completed job records its attained service and its sojourn
    // (dispatcher arrival stamp -> done stamp) once, here, in its
    // scheduler ledger slot: slot 0 on the fixed path, the job's class
    // slot in per-class mode. The snapshot's service and sojourn stages
    // are the union of these histograms, and a class's finished count is
    // the count of its sojourn histogram.
    Histogram class_service[sched::kMaxClasses]; ///< per-job attained
    Histogram class_sojourn[sched::kMaxClasses]; ///< arrival -> done

    TraceRing trace;              ///< typed event ring (producer: worker)
};

/** The dispatcher's telemetry: per-job dispatch cost, RX batch
 *  occupancy, and its trace ring. */
class DispatcherTelemetry
{
  public:
    /** @param trace_capacity ring size in events. */
    explicit DispatcherTelemetry(size_t trace_capacity)
        : trace(kDispatcherTid, trace_capacity)
    {
    }

    Histogram dispatch_cycles; ///< RX batch claimed -> handed to a worker

    /** Requests per non-empty RX batch (a value histogram, not cycles:
     *  count = batches, sum = requests,
     *  so sum/count is the exact mean occupancy). Occupancy ~1 means
     *  the dispatcher is keeping up and batching is a no-op; rising
     *  occupancy is RX queue depth, i.e. dispatcher pressure. */
    Histogram batch_occupancy;

    TraceRing trace;                ///< JobDispatched events
};

/** Summary of one histogram-backed pipeline stage, in nanoseconds. */
struct StageStats
{
    uint64_t count = 0;  ///< samples recorded
    double mean_ns = 0;  ///< exact mean (from the running sum)
    double p99_ns = 0;   ///< bucket-resolution 99th percentile
};

/** One job class's folded per-class quantum instruments (§4i). */
struct ClassQuantaStats
{
    uint64_t grants = 0;        ///< slices granted to the class
    uint64_t finished = 0;      ///< jobs of the class completed
    double mean_granted_us = 0; ///< mean armed budget per grant (the
                                ///< runtime-side effective quantum)
    int64_t deficit_cycles = 0; ///< summed last-value deficit gauges
    StageStats service;         ///< per-job attained service
    StageStats sojourn;         ///< arrival -> completion
};

/** Point-in-time copy of every registry metric (values in ns). */
struct MetricsSnapshot
{
    // dispatched, finished and yields are the runtime's counts (its
    // assigned counts and the workers' stats lines), filled by
    // Runtime::telemetry_snapshot() in every build, -DTQ_TELEMETRY=OFF
    // included; 0 when taken registry-only.
    uint64_t dispatched = 0;       ///< jobs forwarded by the dispatcher
    uint64_t admitted = 0;         ///< jobs admitted by workers
    uint64_t finished = 0;         ///< jobs completed
    uint64_t quanta = 0;           ///< task slices resumed
    uint64_t yields = 0;           ///< probe-forced preemptions
    uint64_t guard_deferrals = 0;  ///< guard-deferred expiries
    uint64_t trace_dropped = 0;    ///< events lost to ring overflow

    uint64_t dispatch_batches = 0;      ///< non-empty dispatcher RX polls
    double mean_dispatch_batch = 0;     ///< mean requests per such batch

    // Backpressure / lifecycle counters (filled by
    // Runtime::telemetry_snapshot(); 0 when taken registry-only). These
    // record in every build — including -DTQ_TELEMETRY=OFF — because
    // they only ever touch the cold overflow and shutdown paths. See
    // OBSERVABILITY.md section 1.4.
    uint64_t tx_ring_full_spins = 0;       ///< worker TX push spin waits
    uint64_t dispatch_ring_full_spins = 0; ///< dispatcher push spin waits
    uint64_t dropped_responses = 0;        ///< TX pushes dropped at a
                                           ///< forced stop
    uint64_t abandoned_jobs = 0;           ///< jobs a drain gave up on
                                           ///< (never finished)

    StageStats dispatch; ///< RX batch claimed -> handed to a worker
    StageStats queueing; ///< handed to a worker -> first quantum
    StageStats service;  ///< sum of slice durations per job
    StageStats preempt;  ///< per-preemption deadline overshoot
    StageStats sojourn;  ///< dispatcher arrival -> completion

    /** Per-class quantum instruments, trimmed to the highest class with
     *  any grants — empty on the fixed-quantum path, so consumers of
     *  the default snapshot see no new fields light up. Classes index
     *  by scheduler ledger slot (sched::kMaxClasses bound). */
    std::vector<ClassQuantaStats> per_class;

    /** Starvation-guard force-promotions across all workers (filled by
     *  Runtime::telemetry_snapshot(); records in every build — the
     *  guard is scheduler state, not telemetry). */
    uint64_t starvation_promotions = 0;

    /** Multi-line human-readable rendering (used by benches/tools). */
    std::string to_string() const;
};

/**
 * Owner of all telemetry state for one Runtime: one WorkerTelemetry per
 * worker and the dispatcher's. Construction is the only
 * allocation; everything afterwards is wait-free on the writer side and
 * lock-free on the reader side.
 */
class MetricsRegistry
{
  public:
    /**
     * @param num_workers worker telemetry slots to create.
     * @param trace_capacity per-ring event capacity (every worker and
     *     the dispatcher get their own ring of this size).
     */
    MetricsRegistry(int num_workers, size_t trace_capacity);

    /** Telemetry slot of worker @p i. */
    WorkerTelemetry &worker(int i) { return *workers_[static_cast<size_t>(i)]; }

    /** @copydoc worker(int) */
    const WorkerTelemetry &worker(int i) const
    {
        return *workers_[static_cast<size_t>(i)];
    }

    /** The dispatcher's slot. */
    DispatcherTelemetry &dispatcher() { return *dispatcher_; }

    /** Number of worker slots. */
    int num_workers() const { return static_cast<int>(workers_.size()); }

    /**
     * Snapshot every counter and histogram without stopping writers.
     * Safe from any thread; see the header comment for the consistency
     * contract.
     */
    MetricsSnapshot snapshot() const;

    /**
     * Drain all trace rings (workers + dispatcher) into @p out, merged
     * and sorted by timestamp. Single consumer; callable while the
     * runtime runs, though a post-run drain sees a complete window.
     * @return number of events appended.
     */
    size_t drain_trace(std::vector<TraceEvent> &out);

  private:
    std::vector<std::unique_ptr<WorkerTelemetry>> workers_;
    /** Heap-allocated like each worker's slot, so the dispatcher's
     *  writes never share a line with another writer's. */
    std::unique_ptr<DispatcherTelemetry> dispatcher_;
};

/**
 * Summarize the union of @p sources (each read under relaxed loads while
 * its one writer may still run). The mean is exact: the summed sums over
 * the summed counts. The p99 is the geometric midpoint of the first
 * bucket whose cumulative count covers 99 % of the summed bucket counts
 * (1 cycle for bucket 0).
 */
StageStats summarize(const std::vector<const Histogram *> &sources);

} // namespace tq::telemetry

#endif // TQ_TELEMETRY_METRICS_H
