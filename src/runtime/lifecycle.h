/**
 * @file
 * Runtime lifecycle state machine (DESIGN.md "Lifecycle & shutdown").
 *
 * The paper's runtime never stops: dedicated cores spin forever and the
 * NIC always drains (section 3.2). This in-process reproduction
 * timeshares one host, so quiescence is a first-class state — as in
 * Shenango's and Shinjuku's runtimes — and every unbounded loop in the
 * datapath must observe it. States move strictly forward:
 *
 *   Created -> Running -> Draining -> Stopping -> Stopped
 *
 * - Running:  accepting and executing work.
 * - Draining: submit() rejects; dispatcher forwards what is already
 *             queued, workers finish admitted jobs, then everyone exits.
 * - Stopping: the drain deadline expired (or stop was forced): abandon
 *             queued jobs, drop blocked pushes, exit now. Every
 *             backpressure loop checks for this phase.
 * - Stopped:  all threads joined.
 *
 * Only the controlling thread (the drain()/stop() caller, serialized by
 * the Runtime's lifecycle mutex) advances the state; dispatcher and
 * workers read it at loop boundaries and inside bounded push loops.
 */
#ifndef TQ_RUNTIME_LIFECYCLE_H
#define TQ_RUNTIME_LIFECYCLE_H

#include <atomic>
#include <cstdint>
#include <thread>

#include "conc/cacheline.h"

namespace tq::runtime {

/** Lifecycle phases, in strictly increasing order. */
enum class Lifecycle : uint32_t {
    Created = 0,  ///< constructed; threads not yet launched
    Running = 1,  ///< accepting and executing work
    Draining = 2, ///< no new work; finishing queued and in-flight jobs
    Stopping = 3, ///< force-quit: abandon queued work, drop blocked pushes
    Stopped = 4,  ///< all threads joined
};

/**
 * Shared lifecycle control block. Writer: the controlling thread.
 * Readers: dispatcher and workers, relaxed loads at loop boundaries.
 *
 * Read-hot, write-almost-never: every datapath loop polls this line, and
 * it is written only a handful of times over a runtime's whole life
 * (state transitions, dispatcher completion). It is padded onto its own
 * line so that per-job counters elsewhere in the Runtime can never
 * invalidate the copy every worker holds in its L1 — exactly the false
 * sharing an earlier Runtime had, where the dispatcher's per-job
 * dispatched-total increment sat adjacent to this block (see
 * docs/cache_line_analysis.md). The two writers here (controller writes
 * `state`, dispatcher writes `dispatcher_done`) sharing one line is
 * deliberate: both fields are cold, and readers want them together.
 */
struct alignas(kCacheLineSize) LifecycleControl
{
    std::atomic<uint32_t> state{static_cast<uint32_t>(Lifecycle::Created)};

    /** Set (release) by the dispatcher after it has forwarded the last
     *  request it will ever forward; workers acquire it before deciding
     *  their dispatch ring is finally empty. */
    std::atomic<bool> dispatcher_done{false};

    /** Keep the polled line to exactly one line. */
    char pad[kCacheLineSize - sizeof(std::atomic<uint32_t>) -
             sizeof(std::atomic<bool>)];

    /** Current phase. */
    Lifecycle
    phase(std::memory_order order = std::memory_order_relaxed) const
    {
        return static_cast<Lifecycle>(state.load(order));
    }

    /** True once the force-quit phase has begun. */
    bool
    force_stop() const
    {
        return phase() >= Lifecycle::Stopping;
    }

    /** Advance @p from -> @p to; false if the state moved on already. */
    bool
    advance(Lifecycle from, Lifecycle to)
    {
        uint32_t expect = static_cast<uint32_t>(from);
        return state.compare_exchange_strong(expect,
                                             static_cast<uint32_t>(to),
                                             std::memory_order_acq_rel);
    }

    /** Unconditionally enter @p to (monotonic escalation only). */
    void
    escalate(Lifecycle to)
    {
        state.store(static_cast<uint32_t>(to), std::memory_order_release);
    }
};

static_assert(sizeof(LifecycleControl) == kCacheLineSize &&
                  alignof(LifecycleControl) == kCacheLineSize,
              "the polled lifecycle block must own exactly one line");

/**
 * Backpressure for a push that found @p ring full: yield and retry,
 * counting each spin in @p spins, until the push succeeds (true) or a
 * forced stop begins, when @p item is dropped and counted in @p drops
 * (false). A full ring only ever waits while the runtime runs, as on
 * the paper's busy-polled cores; the forced-stop exit means a consumer
 * that stops draining can never wedge the producer, or shutdown,
 * forever. The dispatcher's worker-ring push and the worker's TX push
 * share it. Out of line and cold: its counters are read-modify-writes,
 * which must stay off the per-job functions (tools/check_hot_locks.py).
 */
template <typename Ring, typename T>
[[gnu::cold, gnu::noinline]] bool
push_bounded(Ring &ring, const T &item, const LifecycleControl &lc,
             std::atomic<uint64_t> &spins, std::atomic<uint64_t> &drops)
{
    do {
        if (lc.force_stop()) {
            drops.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        spins.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
    } while (!ring.push(item));
    return true;
}

} // namespace tq::runtime

#endif // TQ_RUNTIME_LIFECYCLE_H
