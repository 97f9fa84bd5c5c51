#include "runtime/worker.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/cycles.h"
#include "common/sched_core.h"
#include "fault/fault.h"
#include "probe/probe.h"

namespace tq::runtime {

static_assert(sched::kMaxClasses == telemetry::kMaxTrackedClasses,
              "quantum-table slots and per-class telemetry slots must "
              "stay in one-to-one correspondence");

Worker::Worker(int id, const RuntimeConfig &cfg, Handler handler,
               telemetry::WorkerTelemetry *telem, const LifecycleControl *lc,
               const ClassQuantumTable &quanta,
               const sched::SchedShape<Cycles> &shape)
    : id_(id),
      cfg_(cfg),
      handler_(std::move(handler)),
      telem_(telem),
      lc_(lc),
      quanta_(quanta),
      sched_(shape),
      dispatch_ring_(cfg.ring_capacity),
      tx_ring_(cfg.ring_capacity)
{
    TQ_CHECK(handler_);
    TQ_CHECK(lc_ != nullptr);
    for (int t = 0; t < kTasksPerWorker; ++t) {
        auto task = std::make_unique<Task>();
        Task *raw = task.get();
        // Persistent coroutine body: serve jobs forever, yielding back to
        // the scheduler after each one (paper section 4: task coroutines
        // are created once and recycled between idle and busy states).
        task->coro = std::make_unique<Coroutine>([this, raw](Coroutine &self) {
            for (;;) {
                if (!raw->has_job) {
                    self.yield();
                    continue;
                }
                raw->result = handler_(raw->req);
                raw->has_job = false;
                raw->job_done = true;
                self.yield();
            }
        });
        idle_.push_back(raw);
        tasks_.push_back(std::move(task));
    }
}

void
Worker::poll_admissions()
{
    // Batched admission: pop as many requests as there are idle task
    // slots with one shared-index round trip, instead of one pop (and
    // one acquire of the producer index) per request.
    Request pending[kAdmitBatch];
    while (!idle_.empty()) {
        const size_t want = std::min(idle_.size(), kAdmitBatch);
        const size_t got = dispatch_ring_.pop_n(pending, want);
        for (size_t i = 0; i < got; ++i) {
            Task *task = idle_.back();
            idle_.pop_back();
            task->req = pending[i];
            task->service_cycles = 0;
            task->job_done = false;
            task->has_job = true;
            // Quantum resolution point (DESIGN.md §4i): one relaxed table
            // load per job, here at admission. Every later probe/yield
            // decision compares against the Task's precomputed cycle
            // budget — a controller update never reaches a job
            // mid-service.
            const int slot = sched_.admit(task, pending[i].job_class);
            task->budget_cycles = quanta_.load(slot);
#if defined(TQ_TELEMETRY_ENABLED)
            telem_->counters.admitted.fetch_add(1,
                                               std::memory_order_relaxed);
#endif
        }
        if (got < want)
            return; // ring drained
    }
}

void
Worker::run_one_slice()
{
    TQ_FAULT_SITE(WorkerSlice);
    const auto [e, promoted] = sched_.next();
    if (promoted)
        starvation_promotions_.fetch_add(1, std::memory_order_relaxed);
    Task *task = e.handle;

    // The paper's call_the_yield binding: before resuming, point the
    // thread-local yield hook at this task's coroutine so probes in the
    // handler switch back here.
    bind_yield(
        [](void *coro) { static_cast<Coroutine *>(coro)->yield(); },
        task->coro.get());
    // Budget for this grant: the admission-resolved quantum plus the
    // class's deficit; on the fixed path exactly the quantum.
    const Cycles budget = sched_.grant(e, task->budget_cycles);
    // The slice is timed when settlement can move a deficit or telemetry
    // records it; the fixed quantum (clamp 0) reads no extra clock.
    const bool timed = sched_.ledger().settles() || telemetry::kEnabled;
    const Cycles slice_start = timed ? rdcycles() : 0;
#if defined(TQ_TELEMETRY_ENABLED)
    bind_telemetry(telem_, task->req.id);
    if (e.quanta == 0) // first slice: the job's queueing stage ends
        telem_->queue_cycles.add(slice_start - task->req.dispatch_cycles);
    telem_->counters.quanta.fetch_add(1, std::memory_order_relaxed);
    telem_->trace.record(telemetry::EventKind::QuantumStart, task->req.id,
                         e.quanta);
    if (classes_tracked()) {
        telem_->class_grants[e.slot].fetch_add(1, std::memory_order_relaxed);
        telem_->class_granted_cycles[e.slot].fetch_add(
            budget, std::memory_order_relaxed);
    }
#endif
    if (cfg_.work == WorkPolicy::Fcfs)
        disarm_quantum(); // FCFS: probes never fire
    else
        arm_quantum(budget);
    task->coro->resume();
    disarm_quantum();
    const Cycles slice = timed ? rdcycles() - slice_start : 0;
    // Deficit settlement (DRR): the deficit becomes granted-minus-used. A
    // class that completes inside its budget carries the leftover as
    // credit; one whose probe fired past the deadline carries that
    // overrun as debt into its next grant, and no more.
    sched_.settle(e, budget, slice);
#if defined(TQ_TELEMETRY_ENABLED)
    task->service_cycles += slice;
    if (!task->job_done && cfg_.work != WorkPolicy::Fcfs) {
        // Preemption overhead: how far the slice ran past the armed
        // deadline before a probe fired and the switch-out completed.
        telem_->preempt_cycles.add(slice > budget ? slice - budget : 0);
    }
    if (classes_tracked())
        telem_->class_deficit[e.slot].store(
            sched_.ledger().account(e.slot).deficit,
            std::memory_order_relaxed);
#endif

    if (task->job_done) {
        complete(e);
    } else {
        // Preempted: account the serviced quantum and requeue — tail of
        // the PS ring, or heap reinsert with the bumped quanta for LAS.
        stats_.current_quanta.fetch_add(1, std::memory_order_relaxed);
        stats_.total_quanta.fetch_add(1, std::memory_order_relaxed);
        sched_.requeue(e);
    }
}

bool
Worker::push_response(const Response &resp)
{
    // Response leaves directly from the worker (paper section 3.2). If
    // the TX ring is full the collector is behind: bounded backpressure —
    // spin with a stop check, then a counted drop — so a collector that
    // stopped draining can never wedge this thread (or shutdown) forever.
    TQ_FAULT_SITE(WorkerComplete);
    const size_t limit = cfg_.push_spin_limit;
    size_t spins = 0;
    while (!tx_ring_.push(resp)) {
        if (lc_->force_stop() || (limit != 0 && spins >= limit)) {
            dropped_responses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        ++spins;
        tx_full_spins_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
    }
    return true;
}

void
Worker::complete(const Sched::Entry &e)
{
    Task *task = e.handle;
    Response resp;
    resp.id = task->req.id;
    resp.gen_cycles = task->req.gen_cycles;
    resp.arrival_cycles = task->req.arrival_cycles;
    resp.done_cycles = rdcycles();
    resp.job_class = task->req.job_class;
    resp.worker = id_;
    resp.result = task->result;
    resp.fanout = task->req.fanout;
    resp.shard = task->req.shard;
    push_response(resp);

    // Publish to the dispatcher's cache line even when the response was
    // dropped: the job *did* finish, and the JSQ view must not leak
    // queue length.
    stats_.finished.fetch_add(1, std::memory_order_relaxed);
    stats_.current_quanta.fetch_sub(e.quanta, std::memory_order_relaxed);
    sched_.finish(e);
#if defined(TQ_TELEMETRY_ENABLED)
    telem_->counters.finished.fetch_add(1, std::memory_order_relaxed);
    telem_->service_cycles.add(task->service_cycles);
    telem_->trace.record(telemetry::EventKind::JobFinished, task->req.id);
    if (classes_tracked()) {
        // Per-class controller feed (DESIGN.md §4i): attained service
        // and sojourn keyed by the quantum-table slot.
        telem_->class_finished[e.slot].fetch_add(1,
                                                 std::memory_order_relaxed);
        telem_->class_service[e.slot].add(task->service_cycles);
        telem_->class_sojourn[e.slot].add(resp.done_cycles -
                                          task->req.arrival_cycles);
    }
#endif
    idle_.push_back(task);
}

void
Worker::abandon_remaining()
{
    // Clear the run queue so a second sweep only sees what arrived
    // since — the tasks' coroutines are suspended mid-job and are never
    // resumed again; tasks_ still owns them for destruction.
    uint64_t abandoned = sched_.abandon();
    while (dispatch_ring_.pop())
        ++abandoned;
    if (abandoned != 0)
        abandoned_jobs_.fetch_add(abandoned, std::memory_order_relaxed);
}

void
Worker::run()
{
    int empty_polls = 0;
    for (;;) {
        TQ_FAULT_SITE(WorkerPoll);
        const Lifecycle phase = lc_->phase();
        if (phase >= Lifecycle::Stopping)
            break;
        poll_admissions();
        if (!sched_.empty()) {
            empty_polls = 0;
            run_one_slice();
            continue;
        }
        // Idle. Fully drained once the dispatcher has forwarded its last
        // request (acquire pairs with its release store) and nothing is
        // left in the ring.
        if (phase == Lifecycle::Draining &&
            lc_->dispatcher_done.load(std::memory_order_acquire) &&
            dispatch_ring_.empty())
            break;
        // On dedicated cores this would busy-poll; on shared hosts
        // let other threads (dispatcher, client) make progress.
        if (++empty_polls >= 8) {
            empty_polls = 0;
            std::this_thread::yield();
        } else {
            cpu_relax();
        }
    }
    abandon_remaining();
}

} // namespace tq::runtime
