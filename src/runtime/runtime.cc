#include "runtime/runtime.h"

#include <algorithm>

#include "common/check.h"
#include "common/cycles.h"
#include "fault/fault.h"
#include "telemetry/events.h"

namespace tq::runtime {

namespace {

/** @p cfg after checking the fields that size and time everything the
 *  runtime builds. It initializes cfg_, the first member, so a bad
 *  value stops here before any vector is sized or any negative time
 *  reaches ns_to_cycles(). */
const RuntimeConfig &
checked(const RuntimeConfig &cfg)
{
    TQ_CHECK(cfg.num_workers > 0);
    TQ_CHECK(cfg.quantum_us > 0);
    TQ_CHECK(cfg.deficit_clamp_us >= 0);
    return cfg;
}

} // namespace

Runtime::Runtime(RuntimeConfig cfg, Handler handler)
    : cfg_(checked(cfg)),
      metrics_(std::make_unique<telemetry::MetricsRegistry>(
          cfg_.num_workers,
          telemetry::kEnabled ? kTelemetryTraceCapacity : 1)),
      assigned_(std::make_unique<std::atomic<uint64_t>[]>(
          static_cast<size_t>(cfg_.num_workers)))
{
    // Scheduling shape (DESIGN.md §4i), resolved once for all workers
    // by the rule the simulator shares. A non-positive entry converts
    // to 0 cycles, which resolve_shape() rejects.
    std::vector<Cycles> class_quanta;
    for (const double q : cfg_.class_quantum_us)
        class_quanta.push_back(ns_to_cycles(std::max(q, 0.0) * 1e3));
    sched_shape_ = sched::resolve_shape(
        cfg_.work, ns_to_cycles(cfg_.quantum_us * 1e3), class_quanta,
        ns_to_cycles(cfg_.deficit_clamp_us * 1e3),
        cfg_.starvation_promote_after);
    for (int w = 0; w < cfg_.num_workers; ++w)
        workers_.push_back(std::make_unique<Worker>(
            w, cfg_, handler, &metrics_->worker(w), &lc_, sched_shape_));
    disp_ = std::make_unique<Dispatcher>(cfg_);
    for (auto &w : workers_)
        disp_->stat_lines.push_back(&w->stats_line());
}

Runtime::~Runtime()
{
    stop();
}

void
Runtime::start()
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    TQ_CHECK(!started_);
    started_ = true;
    TQ_CHECK(lc_.advance(Lifecycle::Created, Lifecycle::Running));
    live_threads_.store(1 + cfg_.num_workers, std::memory_order_relaxed);
    threads_.emplace_back([this] {
        dispatcher_main();
        live_threads_.fetch_sub(1, std::memory_order_acq_rel);
    });
    for (auto &w : workers_)
        threads_.emplace_back([&w, this] {
            w->run();
            live_threads_.fetch_sub(1, std::memory_order_acq_rel);
        });
}

void
Runtime::stop()
{
    (void)drain(kStopDeadlineSec);
}

bool
Runtime::drain(double deadline_sec)
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (lc_.phase() == Lifecycle::Stopped)
        return drained_clean_; // idempotent: repeat the first outcome
    if (!started_) {
        // Never started: there are no threads to quiesce, but submit()
        // accepts in Created so clients may have pre-queued into RX,
        // and a stepped runtime (dispatch_step(), Worker::step()) can
        // hold requests in the dispatch rings and in admitted tasks.
        // None of them will finish now — count them abandoned instead
        // of letting them vanish from the accounting.
        lc_.escalate(Lifecycle::Stopped);
        disp_->abandon_queued();
        for (auto &w : workers_)
            w->abandon_remaining();
        drained_clean_ =
            abandoned_jobs() == 0 && dropped_responses() == 0;
        return drained_clean_;
    }

    // Running -> Draining: submit() starts rejecting, the dispatcher
    // forwards what is queued and exits, workers finish and exit.
    // (A no-op if a concurrent caller already moved the state forward.)
    lc_.advance(Lifecycle::Running, Lifecycle::Draining);

    const Cycles deadline =
        rdcycles() + ns_to_cycles(deadline_sec * 1e9);
    while (live_threads_.load(std::memory_order_acquire) > 0 &&
           rdcycles() < deadline)
        std::this_thread::yield();

    if (live_threads_.load(std::memory_order_acquire) > 0) {
        // Deadline expired: escalate. Every spin loop in the datapath
        // checks this phase, so the joins below are bounded.
        lc_.escalate(Lifecycle::Stopping);
#if defined(TQ_FAULT_INJECTION_ENABLED)
        // Frozen fault sites model hung threads; the forced stop is the
        // point where the machinery reclaims them, so let them go or
        // the joins below would inherit the hang.
        fault::FaultInjector::instance().release_all();
#endif
    }
    for (auto &t : threads_)
        t.join();
    threads_.clear();
    lc_.escalate(Lifecycle::Stopped);

    // Submissions that raced the Running -> Draining transition can land
    // in RX after the dispatcher's final sweep; they were never
    // forwarded, so count them abandoned. Every thread is joined, so
    // the sweep races nothing.
    disp_->abandon_queued();
    // Likewise a dispatcher can push into a worker's ring after that
    // (force-stopped) worker's own final sweep; a second sweep is safe
    // now and closes the accounting.
    for (auto &w : workers_)
        w->abandon_remaining();

    drained_clean_ = abandoned_jobs() == 0 && dropped_responses() == 0;
    return drained_clean_;
}

bool
Runtime::submit(const Request &req)
{
    // Created is accepted so clients may pre-queue before start().
    if (lc_.phase() > Lifecycle::Running)
        return false;
    return disp_->rx.push(req);
}

size_t
Runtime::drain_responses(std::vector<Response> &out)
{
    // Pop each TX ring in fixed chunks until one comes back short (the
    // ring read empty). There is no occupancy probe: it would read every
    // worker's index lines on every poll, while pop_n reads only the
    // slots it takes. Each chunk lands in reserved capacity (grown
    // geometrically), so no response is value-initialized only to be
    // overwritten and no chunk reallocates half-way.
    constexpr size_t kChunk = 32;
    const size_t before = out.size();
    for (auto &w : workers_) {
        auto &ring = w->tx_ring();
        size_t got;
        do {
            if (out.capacity() - out.size() < kChunk)
                out.reserve(std::max(2 * out.capacity(), out.size() + kChunk));
            got = ring.pop_n(std::back_inserter(out), kChunk);
        } while (got == kChunk);
    }
    return out.size() - before;
}

uint64_t
Runtime::abandoned_jobs() const
{
    uint64_t n = disp_->counters.abandoned.load(std::memory_order_relaxed);
    for (const auto &w : workers_)
        n += w->abandoned_jobs();
    return n;
}

uint64_t
Runtime::dropped_responses() const
{
    uint64_t n = 0;
    for (const auto &w : workers_)
        n += w->dropped_responses();
    return n;
}

uint64_t
Runtime::tx_ring_full_spins() const
{
    uint64_t n = 0;
    for (const auto &w : workers_)
        n += w->tx_full_spins();
    return n;
}

uint64_t
Runtime::dispatched() const
{
    uint64_t n = 0;
    for (size_t w = 0; w < workers_.size(); ++w)
        n += assigned_[w].load(std::memory_order_relaxed);
    return n;
}

std::vector<uint64_t>
Runtime::queue_lengths() const
{
    std::vector<uint64_t> lens(workers_.size());
    for (size_t w = 0; w < workers_.size(); ++w) {
        const uint64_t fin = workers_[w]->stats_line().finished.load(
            std::memory_order_relaxed);
        const uint64_t asn = assigned_[w].load(std::memory_order_relaxed);
        // assigned_ is bumped *after* the ring push, so a fast worker can
        // transiently put finished ahead of assigned; clamp instead of
        // underflowing to 2^64.
        lens[w] = asn > fin ? asn - fin : 0;
    }
    return lens;
}

void
Runtime::refresh_dispatch_views()
{
    // Refresh the view from the workers' counter lines: queue length =
    // assigned - finished (clamped at 0 against the transient
    // finished>assigned race noted in queue_lengths()). This is the
    // only place the dispatcher touches shared cache lines for load
    // balancing; the JSQ-MSQ pick works on the packed view until the
    // next batch boundary. stat_lines keeps the walk over the workers'
    // lines pointer-chase-free.
    Dispatcher &d = *disp_;
    const size_t n = d.stat_lines.size();
    for (size_t i = 0; i < n; ++i) {
        const WorkerStatsLine &line = *d.stat_lines[i];
        const uint64_t fin = line.finished.load(std::memory_order_relaxed);
        const uint64_t asn = assigned_[i].load(std::memory_order_relaxed);
        d.view.set_len(i, asn > fin ? asn - fin : 0);
        d.view.set_quanta(
            i, line.current_quanta.load(std::memory_order_relaxed));
    }
}

telemetry::MetricsSnapshot
Runtime::telemetry_snapshot() const
{
    telemetry::MetricsSnapshot snap = metrics_->snapshot();
    // The per-job counts every build keeps: dispatched from the assigned
    // counts, finished and the stats-contract cross-check from the
    // workers' 64-bit stats lines.
    snap.dispatched = dispatched();
    for (const auto &w : workers_) {
        const WorkerStatsLine &line = w->stats_line();
        snap.finished += line.finished.load(std::memory_order_relaxed);
        snap.stats_total_quanta +=
            line.total_quanta.load(std::memory_order_relaxed);
    }
    // Backpressure/lifecycle counters record in every build (cold paths
    // only), so fold them in even when TQ_TELEMETRY is off.
    snap.tx_ring_full_spins = tx_ring_full_spins();
    snap.dispatch_ring_full_spins = dispatch_ring_full_spins();
    snap.dropped_responses = dropped_responses();
    snap.abandoned_jobs = abandoned_jobs();
    for (const auto &w : workers_)
        snap.starvation_promotions += w->starvation_promotions();
    return snap;
}

double
Runtime::class_quantum_us(int job_class) const
{
    if (sched_shape_.slots == 1)
        return cfg_.quantum_us; // fixed path: the configured scalar
    return cycles_to_ns(sched_shape_.quantum[sched::clamp_slot(
               job_class, sched::kMaxClasses)]) /
           1e3;
}

size_t
Runtime::drain_trace(std::vector<telemetry::TraceEvent> &out)
{
    return metrics_->drain_trace(out);
}

bool
Runtime::push_request(int target, const Request &req)
{
    TQ_FAULT_SITE(DispatcherPush);
    auto &ring = workers_[static_cast<size_t>(target)]->dispatch_ring();
    return ring.push(req) ||
           push_bounded(ring, req, lc_, disp_->counters.full_spins,
                        disp_->counters.abandoned);
}

void
Runtime::dispatch_batch(Request *reqs, size_t n)
{
    Dispatcher &d = *disp_;
    // One arrival stamp covers the batch: the requests were all in
    // RX when the batch was claimed, and per-request RDTSC is
    // exactly the kind of per-job cost batching amortizes away.
    const Cycles arrived_at = rdcycles();
    // One view refresh per batch: with a batch of 1 every pick sees
    // fresh counters; inside a batch the picks see the boundary
    // snapshot plus this batch's own assignments.
    refresh_dispatch_views();
#if defined(TQ_TELEMETRY_ENABLED)
    telemetry::DispatcherTelemetry &dt = metrics_->dispatcher();
#endif
    for (size_t i = 0; i < n; ++i) {
        Request &req = reqs[i];
        req.arrival_cycles = arrived_at;
        const int target = d.view.pick_jsq_msq();
        d.view.bump_len(static_cast<size_t>(target));
#if defined(TQ_TELEMETRY_ENABLED)
        // Stamp the handoff *before* the push: once the request is in
        // the ring the worker may already be reading it.
        const Cycles dispatched_at = rdcycles();
        req.dispatch_cycles = dispatched_at;
#endif
        if (!push_request(target, req))
            continue; // dropped (counted); the outer loop re-checks
                      // the phase per batch
        owner_add(assigned_[static_cast<size_t>(target)], 1);
#if defined(TQ_TELEMETRY_ENABLED)
        dt.dispatch_cycles.add(dispatched_at - req.arrival_cycles);
        dt.trace.record(telemetry::EventKind::JobDispatched, req.id,
                        static_cast<uint32_t>(target));
#endif
    }
#if defined(TQ_TELEMETRY_ENABLED)
    dt.batch_occupancy.add(n);
#endif
}

size_t
Runtime::dispatch_step()
{
    // RX is popped in batches: one batch dequeue (one contended RMW on
    // the MPMC cursor), one JSQ view refresh (one pass over the shared
    // counter lines), then per-request work against local state only.
    // Under light load batches degenerate to size 1 and the path is the
    // classic per-request one; under pressure the shared-line traffic
    // is divided by the batch occupancy (DESIGN.md "Batched hot path").
    Dispatcher &d = *disp_;
    const size_t n = d.rx.pop_n(d.batch, kDispatchBatch);
    if (n > 0)
        dispatch_batch(d.batch, n);
    return n;
}

void
Runtime::dispatcher_main()
{
    IdleBackoff idle;
    for (;;) {
        TQ_FAULT_SITE(DispatcherPoll);
        const Lifecycle phase = lc_.phase();
        if (phase >= Lifecycle::Stopping)
            break;
        if (dispatch_step() > 0) {
            idle.reset();
            continue;
        }
        if (phase == Lifecycle::Draining)
            break; // everything queued has been forwarded
        idle_backoff(idle);
    }
    // Force-stopped with requests still queued: they will never be
    // forwarded — count them abandoned before announcing completion.
    disp_->abandon_queued();
    // The workers key their drain exit on this (acquire pairs with
    // this release).
    lc_.dispatcher_done.store(true, std::memory_order_release);
}

} // namespace tq::runtime
