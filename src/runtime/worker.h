/**
 * @file
 * TQ worker: a scheduler loop multiplexing task coroutines in quanta
 * (paper sections 3.2, 4).
 *
 * Each worker owns a fixed set of task coroutines, an SPSC dispatch ring
 * filled by the dispatcher, and an SPSC TX ring it pushes responses to
 * (responses bypass the dispatcher, as in the paper). The scheduler
 * keeps idle/busy task lists; before resuming a task it binds the
 * probe runtime's call_the_yield to that task's coroutine and arms the
 * quantum, so compiler-style probes inside the handler preempt the task
 * back to the scheduler.
 *
 * Admission pops each request straight into an idle task's slot
 * (SpscRing::pop_into; the consumer polls the slot's own stamp, never
 * the dispatcher's index). Each slice reads the cycle counter
 * twice: the start arms the deadline, the end times the slice and
 * stamps a completion's done_cycles. Run-queue selection,
 * per-class budgets, deficit settlement and the starvation guard are
 * the shared scheduling core (common/sched_core.h) instantiated on
 * cycles and task pointers — the simulator runs the same code — so
 * this class keeps only the coroutine, probe, telemetry and TX work.
 *
 * The loop is lifecycle-aware (runtime/lifecycle.h): in Draining it
 * finishes admitted jobs and exits once the dispatcher is done and the
 * dispatch ring is empty; in Stopping it abandons what is left. The TX
 * push is bounded backpressure — spin with a stop check, then a counted
 * drop — so a collector that stops draining can never wedge shutdown.
 */
#ifndef TQ_RUNTIME_WORKER_H
#define TQ_RUNTIME_WORKER_H

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/sched_core.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "runtime/config.h"
#include "runtime/lifecycle.h"
#include "runtime/request.h"
#include "runtime/worker_stats.h"
#include "telemetry/telemetry.h"

namespace tq::runtime {

/** Application job handler; runs inside a task coroutine, probed. */
using Handler = std::function<uint64_t(const Request &)>;

static_assert(sizeof(SpscRing<Request>::Slot) <= kCacheLineSize &&
                  sizeof(SpscRing<Response>::Slot) <= kCacheLineSize,
              "a request or response slot, stamp included, must fit one "
              "line so a hand-off is one line transfer");

/** One worker core's scheduler and execution state. */
class Worker
{
  public:
    /**
     * @param id worker index (trace thread id).
     * @param cfg runtime configuration (quantum, policies, ring sizes).
     * @param handler application job body.
     * @param telem this worker's telemetry slot; recording happens only
     *     in TQ_TELEMETRY builds, but the slot is always wired so
     *     snapshots work in every configuration.
     * @param lc the runtime's shared lifecycle control block; read at
     *     loop boundaries and inside every backpressure loop.
     * @param shape the scheduling shape the runtime resolved, per-slot
     *     quanta included (one ledger slot = the fixed quantum;
     *     DESIGN.md §4i).
     */
    Worker(int id, const RuntimeConfig &cfg, Handler handler,
           telemetry::WorkerTelemetry *telem, const LifecycleControl *lc,
           const sched::SchedShape<Cycles> &shape);

    /** Dispatcher-side input ring (single producer: the dispatcher). */
    SpscRing<Request> &dispatch_ring() { return dispatch_ring_; }

    /** Response output ring (single consumer: the client/collector). */
    SpscRing<Response> &tx_ring() { return tx_ring_; }

    /** The shared statistics cache line (paper section 4). */
    WorkerStatsLine &stats_line() { return stats_; }

    /** TX-ring-full spin iterations (backpressure pressure gauge). */
    uint64_t
    tx_full_spins() const
    {
        return tx_full_spins_.load(std::memory_order_relaxed);
    }

    /** Responses dropped because a forced stop began while their TX
     *  push was blocked on a full TX ring (the only drop: while running,
     *  a full ring only waits). */
    uint64_t
    dropped_responses() const
    {
        return dropped_responses_.load(std::memory_order_relaxed);
    }

    /** Jobs abandoned at forced shutdown: admitted-but-unfinished tasks
     *  plus requests still in the dispatch ring when the worker exited. */
    uint64_t
    abandoned_jobs() const
    {
        return abandoned_jobs_.load(std::memory_order_relaxed);
    }

    /**
     * Thread body: step() until the lifecycle either drains this
     * worker dry (Draining + dispatcher done + empty ring + no busy
     * tasks) or force-stops it (Stopping; leftovers are counted
     * abandoned).
     */
    void run();

    /**
     * One scheduler iteration: admit what the dispatch ring holds into
     * idle tasks, then run one slice if any task is runnable. There is
     * no lifecycle check; run() makes those.
     *
     * Caller contract: this worker's thread, or a single thread that
     * also steps the dispatcher of a runtime that was never started
     * (Runtime::dispatch_step()).
     *
     * @return true when a slice ran.
     */
    bool step();

    /**
     * Count still-admitted tasks and dispatch-ring leftovers as
     * abandoned. Idempotent. run() calls it on exit, and the runtime
     * calls it once more after joining every thread: the dispatcher can
     * push into this ring after a force-stopped worker's own final
     * sweep, and that request must not vanish from the accounting.
     * Safe only from the worker thread, after it has been joined, or on
     * a runtime that was never started.
     */
    void abandon_remaining();

    /** Grants the starvation guard forced ahead of the policy order
     *  (0 on the fixed-quantum path or with the guard disabled). */
    uint64_t
    starvation_promotions() const
    {
        return starvation_promotions_.load(std::memory_order_relaxed);
    }

    /** One ledger slot's scheduling account (common/sched_core.h). */
    using ClassSched = sched::ClassLedger<Cycles>::Account;

    /** Ledger slot @p slot's account. On the fixed path every job is
     *  booked to slot 0 and the other slots read as zeros. Plain
     *  fields written only by the worker thread: read them after it has
     *  been joined (tests, post-drain reports). */
    const ClassSched &
    class_sched(int slot) const
    {
        return sched_.ledger().account(
            sched::clamp_slot(slot, sched::kMaxClasses));
    }

  private:
    /** One task coroutine slot and its current job's bookkeeping. */
    struct Task
    {
        Request req;               ///< job currently bound to the slot
        uint64_t result = 0;       ///< handler return value
        Cycles service_cycles = 0; ///< accumulated slice time (telemetry)
        bool has_job = false;      ///< a job is admitted to this slot
        bool job_done = false;     ///< handler returned; response pending
        std::unique_ptr<Coroutine> coro; ///< persistent task coroutine
    };

    /** The shared per-core scheduler on cycles and task pointers. */
    using Sched = sched::SchedCore<Cycles, Task *>;

    void poll_admissions();
    void run_one_slice();
    /** Finish @p e's job; @p done is the slice-end cycle stamp. */
    void complete(const Sched::Entry &e, Cycles done);
    bool push_response(const Response &resp);
    /** Counts one starvation-guard promotion, out of run_one_slice()
     *  because the counter is a read-modify-write (see
     *  check_hot_locks.py). */
    [[gnu::cold, gnu::noinline]] void count_promotion();

    /** The per-class grant and deficit instruments record only when
     *  classes have ledger slots of their own; the one-slot fixed path
     *  leaves them untouched, so its snapshot has no per-class block. */
    bool classes_tracked() const { return sched_.ledger().slots() > 1; }

    int id_;
    const RuntimeConfig cfg_;
    Handler handler_;
    telemetry::WorkerTelemetry *telem_;
    const LifecycleControl *lc_;
    Sched sched_;

    SpscRing<Request> dispatch_ring_;
    SpscRing<Response> tx_ring_;
    WorkerStatsLine stats_;

    std::vector<std::unique_ptr<Task>> tasks_;
    std::vector<Task *> idle_;

    // Backpressure / shutdown accounting. Always recorded (unlike the
    // TQ_TELEMETRY counters): every touch is on the cold overflow or
    // shutdown path, never on the per-job fast path.
    std::atomic<uint64_t> tx_full_spins_{0};
    std::atomic<uint64_t> dropped_responses_{0};
    std::atomic<uint64_t> abandoned_jobs_{0};
    /** Starvation-guard force-promotions (cold path; always recorded
     *  so the guard is observable in -DTQ_TELEMETRY=OFF builds too). */
    std::atomic<uint64_t> starvation_promotions_{0};
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_WORKER_H
