/**
 * @file
 * The TQ runtime: one dispatcher thread + worker threads (paper Figure 3).
 *
 * Datapath, matching the paper:
 *   client -> submit() -> RX queue -> dispatcher (JSQ+MSQ over the
 *   workers' counter cache lines) -> per-worker dispatch ring -> worker
 *   scheduler (PS quanta via forced multitasking) -> per-worker TX ring
 *   -> drain_responses() at the client.
 *
 * The dispatcher never touches job payloads beyond forwarding (blind
 * scheduling needs no parsing, section 3.2) and never sees responses.
 *
 * One dispatcher thread does all load balancing, as in the paper
 * (sections 3.2, 4). Scaling out to several dispatchers is paper
 * section 6's future work; the simulator models it (DESIGN.md §4g),
 * the runtime does not implement it.
 *
 * Lifecycle (runtime/lifecycle.h; DESIGN.md "Lifecycle & shutdown"):
 * the runtime moves Created -> Running -> Draining -> Stopping ->
 * Stopped. drain() finishes queued and in-flight work within a
 * deadline; stop() is drain(kStopDeadlineSec). Past the deadline the
 * stop is forced: leftovers are abandoned (counted) and blocked ring
 * pushes drop (counted); while running, a full ring only waits. Both
 * are idempotent and safe to call from any thread. The dispatcher sets
 * lifecycle dispatcher_done when it exits.
 *
 * The reference host is a 4-vCPU VM: a client, the dispatcher and more
 * than two workers outnumber its cores and timeshare them, so absolute
 * throughput is not meaningful — functional behaviour, preemption and
 * counter semantics are; capacity curves come from tq::sim (DESIGN.md).
 */
#ifndef TQ_RUNTIME_RUNTIME_H
#define TQ_RUNTIME_RUNTIME_H

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/dispatch_view.h"
#include "common/rng.h"
#include "conc/cacheline.h"
#include "conc/mpmc_queue.h"
#include "runtime/config.h"
#include "runtime/lifecycle.h"
#include "runtime/worker.h"
#include "telemetry/telemetry.h"

namespace tq::runtime {

/**
 * The dispatcher's always-on rare-path counters, alone on one line so
 * their writes never invalidate the LifecycleControl line every thread
 * polls (docs/cache_line_analysis.md); both keep their fetch_add.
 * Writers: the dispatcher (plus the drain()/stop() caller for
 * `abandoned`, strictly after the dispatcher has exited); readers: cold
 * stats accessors. The per-job count is the Runtime's `assigned_`.
 */
struct alignas(kCacheLineSize) DispatcherCounters
{
    /** Worker-ring-full spin iterations (backpressure gauge). */
    std::atomic<uint64_t> full_spins{0};

    /** Jobs dropped or left queued when a drain gave up on them. */
    std::atomic<uint64_t> abandoned{0};

    char pad[kCacheLineSize - 2 * sizeof(std::atomic<uint64_t>)];
};

static_assert(sizeof(DispatcherCounters) == kCacheLineSize &&
                  alignof(DispatcherCounters) == kCacheLineSize,
              "dispatcher counters must own exactly one line");

/**
 * The dispatcher's state: its RX queue, dispatch-local JSQ state and
 * counters. It is a heap allocation of its own (unique_ptr in the
 * Runtime), so nothing the dispatcher writes can share a cache line
 * with the Runtime's configuration or lifecycle lines, which every
 * thread reads; inside it, the padded `counters` own their line and
 * everything else is touched only by the dispatcher thread (plus
 * construction and the post-join drain sweep).
 */
struct Dispatcher
{
    explicit Dispatcher(const RuntimeConfig &cfg)
        : rx(cfg.ring_capacity),
          view(static_cast<size_t>(cfg.num_workers)),
          rng(cfg.seed)
    {
    }

    /** The request queue. MPMC: many submitters; the consumers are the
     *  dispatcher and the final drain sweep (after every thread has
     *  joined). */
    MpmcQueue<Request> rx;

    /** Dispatcher-local packed view over the workers
     *  (common/dispatch_view.h), read by every dispatch policy:
     *  refreshed from the workers' counter lines once per RX batch,
     *  then bumped incrementally as the batch's requests are assigned —
     *  per-request work inside a batch never touches a shared cache
     *  line. */
    DispatchView view;

    /** The workers' stats lines as one contiguous pointer array so the
     *  per-batch refresh walks pointers, not unique_ptr<Worker> double
     *  indirections. Filled once at construction. */
    std::vector<WorkerStatsLine *> stat_lines;

    /** Randomized policies, seeded with cfg.seed. */
    Rng rng;

    /** The RX batch dispatch_step() pops into: built once with the
     *  Dispatcher, so a step clears and allocates nothing. */
    Request batch[kDispatchBatch];

    /** Padded counters (own line, see above). */
    DispatcherCounters counters;

    /** Pop everything left in RX and count it abandoned: requests that
     *  will never be forwarded (forced stop, or a drain that never
     *  started the threads). */
    void
    abandon_queued()
    {
        while (rx.pop())
            counters.abandoned.fetch_add(1, std::memory_order_relaxed);
    }
};

/** A running TQ instance. */
class Runtime
{
  public:
    /**
     * @param handler application job body, executed inside task
     *     coroutines with probes armed (must call tq_probe() directly or
     *     through instrumented code to be preemptable).
     */
    Runtime(RuntimeConfig cfg, Handler handler);

    /** Equivalent to stop(). */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Launch dispatcher and worker threads (Created -> Running). */
    void start();

    /**
     * Quiesce then join: drain(kStopDeadlineSec) with the result
     * ignored. Idempotent and thread-safe.
     */
    void stop();

    /**
     * Graceful shutdown: stop accepting work, finish everything already
     * queued or in flight, then join all threads. If @p deadline_sec
     * elapses first, escalate to a forced stop: queued jobs are
     * abandoned and blocked TX pushes dropped, all of it counted
     * (abandoned_jobs(), dropped_responses()). Idempotent and
     * thread-safe; concurrent callers serialize and agree on the result.
     *
     * @return true when the shutdown was clean (nothing abandoned or
     *     dropped over the runtime's whole life).
     */
    bool drain(double deadline_sec);

    /** Current lifecycle phase. */
    Lifecycle lifecycle() const { return lc_.phase(); }

    /**
     * Submit one request (thread-safe; multiple clients allowed).
     * @return false when the RX queue is full or the runtime is past
     *     Running (draining or stopped) — the client should back off or
     *     give up.
     */
    bool submit(const Request &req);

    /**
     * Collect available responses from every worker's TX ring into
     * @p out. Single consumer. @return number collected.
     */
    size_t drain_responses(std::vector<Response> &out);

    /**
     * Dispatched-minus-finished per worker. Thread-safe: relaxed loads
     * of the workers' stats lines and the assigned counts; the
     * dispatcher's JSQ view is never touched.
     */
    std::vector<uint64_t> queue_lengths() const;

    /** Total requests forwarded by the dispatcher: the sum of the
     *  per-worker assigned counts (relaxed loads). */
    uint64_t dispatched() const;

    /** Jobs accepted but never finished, counted only when a drain
     *  gives up on them (a forced stop, or a drain of a runtime never
     *  started): dropped by a dispatcher push blocked on a full worker
     *  ring, still queued, or admitted to a worker and abandoned
     *  there. */
    uint64_t abandoned_jobs() const;

    /** Responses dropped by a worker's TX push that was still blocked
     *  on a full TX ring when a forced stop began. */
    uint64_t dropped_responses() const;

    /** Worker TX-ring-full spin iterations (backpressure gauge). */
    uint64_t tx_ring_full_spins() const;

    /** Dispatcher ring-full spin iterations (backpressure gauge). */
    uint64_t
    dispatch_ring_full_spins() const
    {
        return disp_->counters.full_spins.load(std::memory_order_relaxed);
    }

    const RuntimeConfig &config() const { return cfg_; }

    /** Direct access for tests and examples. */
    Worker &worker(int i) { return *workers_[static_cast<size_t>(i)]; }

    /**
     * One dispatcher iteration: pop up to kDispatchBatch requests from
     * RX and, when there are any, forward them (dispatch_batch()).
     * There is no lifecycle check; dispatcher_main() makes those.
     *
     * Caller contract: the dispatcher thread, or a single thread on a
     * runtime that was never started (which then also steps the workers
     * with Worker::step() and collects with drain_responses()). drain()
     * on such a runtime counts whatever the steps left in RX, in the
     * dispatch rings and in admitted tasks as abandoned.
     *
     * @return requests popped from RX (0 when it was empty).
     */
    size_t dispatch_step();

    /**
     * This runtime's telemetry registry (counters, stage histograms,
     * trace rings). Always present; in `-DTQ_TELEMETRY=OFF` builds the
     * hot paths record nothing, so everything reads zero.
     */
    telemetry::MetricsRegistry &metrics() { return *metrics_; }

    /**
     * Snapshot all metrics without stopping the runtime, folding in the
     * total quanta loaded from each worker's stats cache line and the
     * backpressure counters (which record in every build).
     *
     * Thread-safe: every cross-thread read is a relaxed load, so
     * concurrent snapshots need no lock and running workers and the
     * dispatcher are never disturbed.
     */
    telemetry::MetricsSnapshot telemetry_snapshot() const;

    /**
     * The base quantum the workers grant @p job_class, in microseconds:
     * its slot of the resolved scheduling shape in per-class mode, or
     * config().quantum_us on the fixed path.
     */
    double class_quantum_us(int job_class) const;

    /**
     * Drain every trace ring into @p out, merged and sorted by
     * timestamp (see MetricsRegistry::drain_trace()). Single consumer.
     * @return events appended.
     */
    size_t drain_trace(std::vector<telemetry::TraceEvent> &out);

  private:
    friend struct ::tq::LayoutAudit;

    void dispatcher_main();
    void dispatch_batch(Request *reqs, size_t n);
    void refresh_dispatch_views();
    bool push_request(int target, const Request &req);

    RuntimeConfig cfg_;
    std::unique_ptr<telemetry::MetricsRegistry> metrics_;

    /** The workers' scheduling shape with its per-slot quanta
     *  (DESIGN.md §4i; one ledger slot = the fixed quantum). */
    sched::SchedShape<Cycles> sched_shape_;

    std::vector<std::unique_ptr<Worker>> workers_;

    /** The dispatcher's state (separately allocated, see Dispatcher). */
    std::unique_ptr<Dispatcher> disp_;

    /** Per-worker assigned counts. Writer: the dispatcher; readers:
     *  queue_lengths() callers (relaxed — the JSQ view is approximate by
     *  design, paper section 4). One writer, so each slot moves by
     *  owner_add(). */
    std::unique_ptr<std::atomic<uint64_t>[]> assigned_;

    /** Read-hot by every thread, written almost never; owns its line
     *  (LifecycleControl is alignas(kCacheLineSize)). */
    LifecycleControl lc_;
    std::atomic<int> live_threads_{0};
    std::vector<std::thread> threads_;

    /** Serializes start/drain/stop; protects started_, threads_,
     *  drained_clean_. */
    std::mutex lifecycle_mu_;
    bool started_ = false;
    bool drained_clean_ = true;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_RUNTIME_H
