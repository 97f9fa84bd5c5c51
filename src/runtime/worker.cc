#include "runtime/worker.h"

#include "common/check.h"
#include "common/cycles.h"
#include "common/sched_core.h"
#include "fault/fault.h"
#include "probe/probe.h"

namespace tq::runtime {

Worker::Worker(int id, const RuntimeConfig &cfg, Handler handler,
               telemetry::WorkerTelemetry *telem, const LifecycleControl *lc,
               const sched::SchedShape<Cycles> &shape)
    : id_(id),
      cfg_(cfg),
      handler_(std::move(handler)),
      telem_(telem),
      lc_(lc),
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
    // Pop each request straight into an idle task's slot, so admission
    // clears and copies no per-job buffer (tools/check_hot_locks.py).
    // pop_into polls the stamp of the slot it reads, so each request
    // costs one line transfer and an empty ring one load of a slot line.
    while (!idle_.empty()) {
        Task *task = idle_.back();
        if (!dispatch_ring_.pop_into(task->req))
            return; // ring drained
        idle_.pop_back();
        task->service_cycles = 0;
        task->job_done = false;
        task->has_job = true;
        sched_.admit(task, task->req.job_class);
#if defined(TQ_TELEMETRY_ENABLED)
        owner_add(telem_->counters.admitted, 1);
#endif
    }
}

void
Worker::run_one_slice()
{
    TQ_FAULT_SITE(WorkerSlice);
    const auto [e, promoted] = sched_.next();
    if (promoted)
        count_promotion();
    Task *task = e.handle;

    // The paper's call_the_yield binding: before resuming, point the
    // thread-local yield hook at this task's coroutine so probes in the
    // handler switch back here.
    bind_yield(
        [](void *coro) { static_cast<Coroutine *>(coro)->yield(); },
        task->coro.get());
    // Budget for this grant: the slot's quantum from the scheduling
    // shape plus the class's deficit; on the fixed path exactly the
    // quantum.
    const Cycles budget = sched_.grant(e);
    // Two clock reads per slice: this one arms the deadline, and the one
    // after the resume times the slice and stamps a completion.
    const Cycles slice_start = rdcycles();
#if defined(TQ_TELEMETRY_ENABLED)
    bind_telemetry(telem_, task->req.id);
    if (e.quanta == 0) // first slice: the job's queueing stage ends
        telem_->queue_cycles.add(slice_start - task->req.dispatch_cycles);
    owner_add(telem_->counters.quanta, 1);
    telem_->trace.record(telemetry::EventKind::QuantumStart, task->req.id,
                         e.quanta);
    if (classes_tracked()) {
        owner_add(telem_->class_grants[e.slot], 1);
        owner_add(telem_->class_granted_cycles[e.slot], budget);
    }
#endif
    if (cfg_.work == WorkPolicy::Fcfs)
        disarm_quantum(); // FCFS: probes never fire
    else
        arm_quantum_from(slice_start, budget);
    task->coro->resume();
    disarm_quantum();
    const Cycles slice_end = rdcycles();
    const Cycles slice = slice_end - slice_start;
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
        complete(e, slice_end);
    } else {
        // Preempted: account the serviced quantum and requeue — tail of
        // the PS ring, or heap reinsert with the bumped quanta for LAS.
        owner_add(stats_.current_quanta, 1);
        owner_add(stats_.yields, 1);
        sched_.requeue(e);
    }
}

bool
Worker::push_response(const Response &resp)
{
    // Response leaves directly from the worker (paper section 3.2).
    TQ_FAULT_SITE(WorkerComplete);
    return tx_ring_.push(resp) ||
           push_bounded(tx_ring_, resp, *lc_, tx_full_spins_,
                        dropped_responses_);
}

void
Worker::count_promotion()
{
    starvation_promotions_.fetch_add(1, std::memory_order_relaxed);
}

void
Worker::complete(const Sched::Entry &e, Cycles done)
{
    Task *task = e.handle;
    Response resp;
    resp.id = task->req.id;
    resp.gen_cycles = task->req.gen_cycles;
    resp.arrival_cycles = task->req.arrival_cycles;
    resp.done_cycles = done;
    resp.job_class = task->req.job_class;
    resp.worker = id_;
    resp.result = task->result;
    push_response(resp);

    // Publish to the dispatcher's cache line even when the response was
    // dropped: the job *did* finish, and the JSQ view must not leak
    // queue length.
    owner_add(stats_.finished, 1);
    owner_add(stats_.current_quanta, 0u - e.quanta);
    sched_.finish(e);
#if defined(TQ_TELEMETRY_ENABLED)
    // The job's service and sojourn stages, recorded once in its ledger
    // slot (slot 0 on the fixed path).
    telem_->class_service[e.slot].add(task->service_cycles);
    telem_->class_sojourn[e.slot].add(resp.done_cycles -
                                      task->req.arrival_cycles);
    telem_->trace.record(telemetry::EventKind::JobFinished, task->req.id);
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

bool
Worker::step()
{
    poll_admissions();
    if (sched_.empty())
        return false;
    run_one_slice();
    return true;
}

void
Worker::run()
{
    IdleBackoff idle;
    for (;;) {
        TQ_FAULT_SITE(WorkerPoll);
        const Lifecycle phase = lc_->phase();
        if (phase >= Lifecycle::Stopping)
            break;
        if (step()) {
            idle.reset();
            continue;
        }
        // Idle. Fully drained once the dispatcher has forwarded its last
        // request (acquire pairs with its release store) and nothing is
        // left in the ring.
        if (phase == Lifecycle::Draining &&
            lc_->dispatcher_done.load(std::memory_order_acquire) &&
            dispatch_ring_.empty())
            break;
        idle_backoff(idle);
    }
    abandon_remaining();
}

} // namespace tq::runtime
