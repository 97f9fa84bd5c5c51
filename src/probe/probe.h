/**
 * @file
 * Forced-multitasking probe runtime (paper section 3.1 / 4).
 *
 * Instrumented job code calls tq_probe() at compiler-chosen sites. The
 * probe reads the physical cycle counter and, if the current quantum has
 * expired, invokes the thread-local `call_the_yield` function that the
 * scheduler coroutine bound before resuming the task — switching control
 * back to the scheduler. When the quantum has not expired the probe costs
 * one RDTSC plus a predicted-not-taken branch.
 *
 * Critical sections (paper section 4) disable yielding via PreemptGuard:
 * while disabled, probes record that the deadline passed but do not
 * yield; the first probe after the section ends performs the yield.
 *
 * Quanta are specified per resume, so dynamic-quantum policies such as
 * least-attained-service work without changes (paper section 3.1).
 */
#ifndef TQ_PROBE_PROBE_H
#define TQ_PROBE_PROBE_H

#include <cstdint>

#include "common/cycles.h"
#if defined(TQ_TELEMETRY_ENABLED)
#include "telemetry/metrics.h"
#endif

namespace tq {

/** Yield callback bound by the scheduler before resuming a task. */
using YieldFn = void (*)(void *arg);

/** Per-thread forced-multitasking state. */
struct ProbeState
{
    /** Cycle-counter value at which the current quantum expires. */
    Cycles deadline = ~Cycles{0};

    /** Nesting depth of preempt-disable critical sections. */
    uint32_t preempt_disabled = 0;

    /** Set when the deadline passed inside a critical section. */
    bool yield_pending = false;

    /** The task coroutine's yield function (paper's call_the_yield). */
    YieldFn call_the_yield = nullptr;

    /** Opaque argument for call_the_yield. */
    void *yield_arg = nullptr;

#if defined(TQ_TELEMETRY_ENABLED)
    /** Telemetry sink of the worker owning this thread (may be null). */
    telemetry::WorkerTelemetry *telem = nullptr;

    /** Job id of the task about to run (for ProbeYield trace events). */
    uint64_t telem_job = 0;
#endif
};

/** @return this thread's probe state. */
ProbeState &probe_state();

namespace detail {
/** Out-of-line expired-deadline path of tq_probe_at(). */
void probe_expired(ProbeState &state);
} // namespace detail

/**
 * Bind the yield callback for the task about to be resumed.
 * Called by the scheduler coroutine, once per task construction or
 * before each resume (both are cheap).
 */
inline void
bind_yield(YieldFn fn, void *arg)
{
    ProbeState &s = probe_state();
    s.call_the_yield = fn;
    s.yield_arg = arg;
}

#if defined(TQ_TELEMETRY_ENABLED)
/**
 * Bind this thread's telemetry sink for the task about to be resumed,
 * so the slow path of tq_probe() can attribute ProbeYield /
 * GuardDeferredYield events to the right worker and job. Telemetry
 * builds only; the probe fast path is unaffected either way.
 */
inline void
bind_telemetry(telemetry::WorkerTelemetry *telem, uint64_t job)
{
    ProbeState &s = probe_state();
    s.telem = telem;
    s.telem_job = job;
}
#endif

/**
 * Start a quantum of @p quantum_cycles counted from @p start, a cycle
 * stamp the caller has already read (the worker's slice start), so
 * arming costs no clock read of its own. A start far enough in the past
 * expires at the first probe.
 */
inline void
arm_quantum_from(Cycles start, Cycles quantum_cycles)
{
    probe_state().deadline = start + quantum_cycles;
}

/**
 * Start a quantum of @p quantum_cycles ending relative to now.
 * Called immediately before resuming a task coroutine.
 */
inline void
arm_quantum(Cycles quantum_cycles)
{
    arm_quantum_from(rdcycles(), quantum_cycles);
}

/** Disarm the quantum (e.g. while the scheduler itself runs). */
inline void
disarm_quantum()
{
    probe_state().deadline = ~Cycles{0};
}

namespace detail {
/** The probe body: yields via call_the_yield if the quantum expired by
 *  @p now. @return true when the expired path ran. */
inline bool
probe_at(ProbeState &s, Cycles now)
{
    if (__builtin_expect(now < s.deadline, 1))
        return false;
    probe_expired(s);
    return true;
}
} // namespace detail

/**
 * The probe on a cycle stamp @p now the caller has already read: a
 * caller that stamps its own work anyway (workloads::spin_cycles)
 * probes with that stamp instead of reading the counter twice.
 * @return true when the expired path ran (a yield, or a deferral inside
 *     a PreemptGuard).
 */
inline bool
tq_probe_at(Cycles now)
{
    return detail::probe_at(probe_state(), now);
}

/**
 * The probe inserted by the compiler pass: the probe body on a fresh
 * read of the cycle counter, taken after the state lookup so the stamp
 * is as late as it can be.
 */
inline void
tq_probe()
{
    ProbeState &s = probe_state();
    detail::probe_at(s, rdcycles());
}

/**
 * RAII critical section: yields are bypassed while any guard is alive
 * (probes still observe deadline expiry and yield at the first probe
 * after the last guard is destroyed).
 *
 * Use it for the paper's critical sections (section 4) and for any
 * non-reentrant code reachable from probed jobs — e.g. a thread_local
 * initializer that itself executes probes: yielding mid-initialization
 * would let another task coroutine on the same thread re-enter it (the
 * reentrancy hazard of paper section 6).
 */
class PreemptGuard
{
  public:
    PreemptGuard() { ++probe_state().preempt_disabled; }
    ~PreemptGuard()
    {
        ProbeState &s = probe_state();
        --s.preempt_disabled;
    }

    PreemptGuard(const PreemptGuard &) = delete;
    PreemptGuard &operator=(const PreemptGuard &) = delete;
};

} // namespace tq

#endif // TQ_PROBE_PROBE_H
